#include "src/format/page.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace lethe {

namespace {
constexpr size_t kPageTrailerSize = 4;  // fixed32 crc
}  // namespace

bool PageSizer::Add(const Slice& key, size_t encoded_size, size_t limit) {
  const size_t n = key_sizes_.size() + 1;
  const size_t prefix =
      n == 1 ? key.size()
             : SharedPrefixLength(Slice(first_key_.data(), prefix_size_), key);
  size_t suffix_length_bytes = VarintLength(key.size() - prefix);
  if (prefix == prefix_size_) {
    suffix_length_bytes += suffix_length_bytes_;
  } else {
    for (uint32_t key_size : key_sizes_) {
      suffix_length_bytes += VarintLength(key_size - prefix);
    }
  }
  const size_t unprefixed =
      unprefixed_bytes_ + encoded_size - VarintLength(key.size());
  if (PageHeaderSize(static_cast<uint32_t>(n), prefix) + unprefixed -
          n * prefix + suffix_length_bytes >
      limit) {
    return false;
  }
  if (n == 1) {
    first_key_.assign(key.data(), key.size());
  }
  key_sizes_.push_back(static_cast<uint32_t>(key.size()));
  prefix_size_ = prefix;
  unprefixed_bytes_ = unprefixed;
  suffix_length_bytes_ = suffix_length_bytes;
  return true;
}

void PageSizer::Clear() {
  key_sizes_.clear();
  prefix_size_ = 0;
  unprefixed_bytes_ = 0;
  suffix_length_bytes_ = 0;
}

PageBuilder::PageBuilder(uint64_t page_size_bytes, uint32_t max_entries)
    : page_size_bytes_(page_size_bytes), max_entries_(max_entries) {
  entries_.reserve(page_size_bytes);
}

bool PageBuilder::HasRoom(const Slice& key, size_t encoded_size) {
  return sizer_.num_entries() < max_entries_ &&
         sizer_.Add(key, encoded_size, page_size_bytes_ - kPageTrailerSize);
}

bool PageBuilder::Add(const ParsedEntry& entry) {
  if (!HasRoom(entry.user_key, EncodedEntrySize(entry))) {
    return false;
  }
  starts_.push_back(static_cast<uint32_t>(entries_.size()));
  EncodeEntry(entry, &entries_);
  return true;
}

bool PageBuilder::AddEncoded(const Slice& encoded) {
  uint32_t key_size;
  const char* key = GetVarint32Ptr(
      encoded.data(), encoded.data() + encoded.size(), &key_size);
  if (!HasRoom(Slice(key, key_size), encoded.size())) {
    return false;
  }
  starts_.push_back(static_cast<uint32_t>(entries_.size()));
  entries_.append(encoded.data(), encoded.size());
  return true;
}

std::string PageBuilder::Finish() {
  std::vector<Slice> entries;
  entries.reserve(starts_.size());
  for (size_t i = 0; i < starts_.size(); i++) {
    const size_t end =
        i + 1 < starts_.size() ? starts_[i + 1] : entries_.size();
    entries.emplace_back(entries_.data() + starts_[i], end - starts_[i]);
  }
  std::string page;
  const bool fits = EncodePage(
      entries, Slice(sizer_.first_key().data(), sizer_.prefix_size()),
      page_size_bytes_, &page);
  assert(fits);  // HasRoom counted every entry
  (void)fits;
  entries_.clear();
  starts_.clear();
  sizer_.Clear();
  return page;
}

bool EncodePage(std::span<const Slice> entries, const Slice& prefix,
                uint64_t page_size_bytes, std::string* page) {
  page->resize(page_size_bytes);
  char* const begin = page->data();
  char* const crc_at = begin + page_size_bytes - kPageTrailerSize;
  if (PageHeaderSize(static_cast<uint32_t>(entries.size()), prefix.size()) >
      static_cast<size_t>(crc_at - begin)) {
    return false;
  }
  char* dst = EncodeVarint32(begin, static_cast<uint32_t>(entries.size()));
  dst = EncodeVarint32(dst, static_cast<uint32_t>(prefix.size()));
  memcpy(dst, prefix.data(), prefix.size());
  dst += prefix.size();
  // Each entry: its key's suffix length, then the rest of its EncodeEntry
  // bytes from the suffix on, which run contiguously to the entry's end.
  for (const Slice& entry : entries) {
    const char* const end = entry.data() + entry.size();
    uint32_t key_size;
    const char* key = GetVarint32Ptr(entry.data(), end, &key_size);
    const uint32_t suffix_size =
        key_size - static_cast<uint32_t>(prefix.size());
    const size_t tail = static_cast<size_t>(end - key) - prefix.size();
    if (VarintLength(suffix_size) + tail > static_cast<size_t>(crc_at - dst)) {
      return false;
    }
    dst = EncodeVarint32(dst, suffix_size);
    memcpy(dst, key + prefix.size(), tail);
    dst += tail;
  }
  memset(dst, 0, static_cast<size_t>(crc_at - dst));
  EncodeFixed32(crc_at, crc32c::Mask(crc32c::Value(begin, crc_at - begin)));
  return true;
}

Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out) {
  if (raw.size() != page_size_bytes || raw.size() < kPageTrailerSize) {
    return Status::Corruption("page truncated");
  }
  Slice body(raw.data(), raw.size() - kPageTrailerSize);
  uint32_t stored = crc32c::Unmask(DecodeFixed32(body.data() + body.size()));
  if (stored != crc32c::Value(body.data(), body.size())) {
    return Status::Corruption("page checksum mismatch");
  }

  uint32_t num_entries, prefix_size;
  if (!GetVarint32(&body, &num_entries) || !GetVarint32(&body, &prefix_size) ||
      prefix_size > body.size()) {
    return Status::Corruption("page header malformed");
  }
  const char* const prefix = body.data();
  body.remove_prefix(prefix_size);
  // A count the body cannot hold, even in smallest entries, is rejected
  // before anything is sized by it.
  if (num_entries > body.size() / kMinEncodedEntrySize) {
    return Status::Corruption("page entry count malformed");
  }

  // Pass one: parse every entry, note where its suffix starts, the suffix's
  // size and the bytes from there to the entry's end (the suffix and
  // everything after it run contiguously), and size the decoded bytes.
  struct Suffix {
    const char* data;
    uint32_t size;
    uint32_t tail;
  };
  static thread_local std::vector<Suffix> suffixes;
  suffixes.clear();
  size_t data_size = 0;
  Slice input = body;
  ParsedEntry entry;
  for (uint32_t i = 0; i < num_entries; i++) {
    if (!DecodeEntry(&input, &entry)) {
      return Status::Corruption("page entry malformed");
    }
    const Slice& suffix = entry.user_key;
    const uint32_t tail = static_cast<uint32_t>(input.data() - suffix.data());
    suffixes.push_back(
        {suffix.data(), static_cast<uint32_t>(suffix.size()), tail});
    data_size += VarintLength(prefix_size + suffix.size()) + prefix_size + tail;
  }
  // Offsets into the decoded entries are fixed32.
  if (data_size > UINT32_MAX) {
    return Status::Corruption("page decodes past 4 GB");
  }

  // Pass two: the entries with their prefix put back, then one fixed32
  // offset per entry. No zero fill; every byte is written here.
  char* buffer = new char[data_size + 4 * size_t{num_entries}];
  out->buffer_.reset(buffer);
  out->data_size_ = data_size;
  char* const offsets = buffer + data_size;
  char* dst = buffer;
  for (uint32_t i = 0; i < num_entries; i++) {
    EncodeFixed32(offsets + 4 * i, static_cast<uint32_t>(dst - buffer));
    const Suffix& suffix = suffixes[i];
    dst = EncodeVarint32(dst, prefix_size + suffix.size);
    memcpy(dst, prefix, prefix_size);
    memcpy(dst + prefix_size, suffix.data, suffix.tail);
    dst += prefix_size + suffix.tail;
  }
  out->entries.data_ = buffer;
  out->entries.offsets_ = offsets;
  out->entries.size_ = num_entries;
  return Status::OK();
}

}  // namespace lethe
