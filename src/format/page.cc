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
}

bool PageBuilder::Add(const ParsedEntry& entry) {
  if (num_entries_ >= max_entries_) {
    return false;
  }
  size_t need = EncodedEntrySize(entry);
  if (kPageHeaderSize + buffer_.size() + need + kPageTrailerSize >
      page_size_bytes_) {
    return false;
  }
  EncodeEntry(entry, &buffer_);
  num_entries_++;
  return true;
}

std::string PageBuilder::Finish() {
  std::string page;
  page.reserve(page_size_bytes_);
  PutFixed32(&page, num_entries_);
  page.append(buffer_);
  page.resize(page_size_bytes_ - kPageTrailerSize, '\0');
  uint32_t crc = crc32c::Value(page.data(), page.size());
  PutFixed32(&page, crc32c::Mask(crc));

  buffer_.clear();
  num_entries_ = 0;
  return page;
}

Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out) {
  if (raw.size() != page_size_bytes) {
    return Status::Corruption("page truncated");
  }
  uint32_t stored = crc32c::Unmask(
      DecodeFixed32(raw.data() + raw.size() - kPageTrailerSize));
  uint32_t actual = crc32c::Value(raw.data(), raw.size() - kPageTrailerSize);
  if (stored != actual) {
    return Status::Corruption("page checksum mismatch");
  }

  out->data = std::make_unique<char[]>(raw.size());
  out->raw_size = raw.size();
  memcpy(out->data.get(), raw.data(), raw.size());
  Slice body(out->data.get(), raw.size() - kPageTrailerSize);

  uint32_t num_entries;
  if (!GetFixed32(&body, &num_entries)) {
    return Status::Corruption("page header truncated");
  }
  out->entries.clear();
  out->entries.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; i++) {
    ParsedEntry entry;
    if (!DecodeEntry(&body, &entry)) {
      return Status::Corruption("page entry malformed");
    }
    out->entries.push_back(entry);
  }
  return Status::OK();
}

}  // namespace lethe
