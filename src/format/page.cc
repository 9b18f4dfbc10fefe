#include "src/format/page.h"

#include <cstring>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace lethe {

namespace {
constexpr size_t kPageHeaderSize = 4;   // fixed32 num_entries
constexpr size_t kPageTrailerSize = 4;  // fixed32 crc
}  // namespace

PageBuilder::PageBuilder(uint64_t page_size_bytes, uint32_t max_entries)
    : page_size_bytes_(page_size_bytes),
      max_entries_(max_entries),
      num_entries_(0) {
  buffer_.reserve(page_size_bytes);
  buffer_.resize(kPageHeaderSize);
}

bool PageBuilder::HasRoom(size_t entry_bytes) const {
  return num_entries_ < max_entries_ &&
         buffer_.size() + entry_bytes + kPageTrailerSize <= page_size_bytes_;
}

bool PageBuilder::Add(const ParsedEntry& entry) {
  if (!HasRoom(EncodedEntrySize(entry))) {
    return false;
  }
  EncodeEntry(entry, &buffer_);
  num_entries_++;
  return true;
}

bool PageBuilder::AddEncoded(const Slice& encoded) {
  if (!HasRoom(encoded.size())) {
    return false;
  }
  buffer_.append(encoded.data(), encoded.size());
  num_entries_++;
  return true;
}

std::string PageBuilder::Finish() {
  std::string page;
  Finish(&page);
  return page;
}

void PageBuilder::Finish(std::string* page) {
  EncodeFixed32(buffer_.data(), num_entries_);
  buffer_.resize(page_size_bytes_ - kPageTrailerSize, '\0');
  uint32_t crc = crc32c::Value(buffer_.data(), buffer_.size());
  PutFixed32(&buffer_, crc32c::Mask(crc));

  page->swap(buffer_);
  buffer_.clear();
  buffer_.reserve(page_size_bytes_);
  buffer_.resize(kPageHeaderSize);
  num_entries_ = 0;
}

Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out) {
  if (raw.size() != page_size_bytes ||
      raw.size() < kPageHeaderSize + kPageTrailerSize) {
    return Status::Corruption("page truncated");
  }
  uint32_t stored = crc32c::Unmask(
      DecodeFixed32(raw.data() + raw.size() - kPageTrailerSize));
  uint32_t actual = crc32c::Value(raw.data(), raw.size() - kPageTrailerSize);
  if (stored != actual) {
    return Status::Corruption("page checksum mismatch");
  }

  uint32_t num_entries = DecodeFixed32(raw.data());
  // A count the body cannot hold, even in smallest entries, is rejected
  // before it sizes the offset table.
  const size_t body_size = raw.size() - kPageHeaderSize - kPageTrailerSize;
  if (num_entries > body_size / kMinEncodedEntrySize) {
    return Status::Corruption("page entry count malformed");
  }

  // Page bytes, then one fixed32 offset per entry; no zero fill, every byte
  // is written below.
  char* buffer = new char[raw.size() + 4 * size_t{num_entries}];
  out->buffer_.reset(buffer);
  out->raw_size_ = raw.size();
  out->entries = PageEntries();
  memcpy(buffer, raw.data(), raw.size());
  char* offsets = buffer + raw.size();

  Slice body(buffer + kPageHeaderSize, body_size);
  for (uint32_t i = 0; i < num_entries; i++) {
    EncodeFixed32(offsets + 4 * i,
                  static_cast<uint32_t>(body.data() - buffer));
    ParsedEntry entry;
    if (!DecodeEntry(&body, &entry)) {
      return Status::Corruption("page entry malformed");
    }
  }
  out->entries.data_ = buffer;
  out->entries.offsets_ = offsets;
  out->entries.size_ = num_entries;
  return Status::OK();
}

}  // namespace lethe
