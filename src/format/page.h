#ifndef LETHE_FORMAT_PAGE_H_
#define LETHE_FORMAT_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>

#include "src/format/entry.h"
#include "src/util/coding.h"
#include "src/util/status.h"

namespace lethe {

/// Builds one fixed-size disk page:
///   fixed32 num_entries | entries... | zero padding | fixed32 crc32c
/// The CRC covers everything before it. Each entry is EncodeEntry's varint
/// layout (see entry.h), so its size varies with its key, value, sequence
/// and delete key. Entries are stored in the order they are added; for KiWi
/// the caller sorts them by sort key before adding.
class PageBuilder {
 public:
  PageBuilder(uint64_t page_size_bytes, uint32_t max_entries);

  /// Returns true if the entry was accepted; false if it would overflow the
  /// page (by entry count or bytes).
  bool Add(const ParsedEntry& entry);

  /// Add for an entry already serialized by EncodeEntry: copies its bytes
  /// as they are.
  bool AddEncoded(const Slice& encoded);

  bool empty() const { return num_entries_ == 0; }
  uint32_t num_entries() const { return num_entries_; }

  /// Serializes the page (padded to page_size_bytes) and resets the builder.
  std::string Finish();

  /// Finish into *page, replacing its contents. The builder takes over the
  /// old storage of *page, so a caller that passes the same string for
  /// every page builds them all without allocating.
  void Finish(std::string* page);

 private:
  bool HasRoom(size_t entry_bytes) const;

  uint64_t page_size_bytes_;
  uint32_t max_entries_;
  uint32_t num_entries_;
  std::string buffer_;  // header placeholder + entry bytes (crc in Finish)
};

class PageContents;
Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out);

/// Read-only view of a decoded page's entries. Nothing is stored per entry
/// but its byte offset in the page; `operator[]` and iteration decode an
/// entry on demand into a ParsedEntry whose slices alias the page bytes.
/// DecodePage validated every entry, so these accessors decode unchecked.
class PageEntries {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = ParsedEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ParsedEntry;

    Iterator(const PageEntries* entries, size_t pos)
        : entries_(entries), pos_(pos) {}
    ParsedEntry operator*() const { return (*entries_)[pos_]; }
    Iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return pos_ == other.pos_; }

   private:
    const PageEntries* entries_;
    size_t pos_;
  };

  size_t size() const { return size_; }

  /// The sort key of entry i, without decoding the rest of it.
  Slice key(size_t i) const {
    const char* p = data_ + Offset(i);
    uint32_t key_len;
    p = GetVarint32Ptr(p, p + 5, &key_len);
    return Slice(p, key_len);
  }

  /// Entry i, decoded.
  ParsedEntry operator[](size_t i) const {
    ParsedEntry entry;
    Decode(i, &entry);
    return entry;
  }

  /// Entry i's encoded bytes, as EncodeEntry wrote them.
  Slice encoded(size_t i) const {
    ParsedEntry entry;
    const char* begin = data_ + Offset(i);
    return Slice(begin, Decode(i, &entry) - begin);
  }

  /// Index of the first entry whose sort key is >= `user_key` (size() if
  /// none); entries are sorted by sort key.
  size_t LowerBound(const Slice& user_key) const {
    size_t lo = 0, hi = size_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (key(mid).compare(user_key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_); }

 private:
  friend Status DecodePage(Slice raw, uint64_t page_size_bytes,
                           PageContents* out);

  uint32_t Offset(size_t i) const { return DecodeFixed32(offsets_ + 4 * i); }

  /// Decodes entry i into *entry; returns a pointer just past its bytes.
  /// The entry was validated, so each varint ends within its maximum
  /// length (5 bytes for a varint32, 10 for a varint64).
  const char* Decode(size_t i, ParsedEntry* entry) const {
    const char* p = data_ + Offset(i);
    uint32_t len;
    p = GetVarint32Ptr(p, p + 5, &len);
    entry->user_key = Slice(p, len);
    p += len;
    uint64_t packed;
    p = GetVarint64Ptr(p, p + 10, &packed);
    entry->seq = UnpackSeq(packed);
    entry->type = UnpackType(packed);
    p = GetVarint64Ptr(p, p + 10, &entry->delete_key);
    p = GetVarint32Ptr(p, p + 5, &len);
    entry->value = Slice(p, len);
    return p + len;
  }

  const char* data_ = nullptr;     // the page bytes
  const char* offsets_ = nullptr;  // fixed32 offset of each entry in data_
  uint32_t size_ = 0;
};

/// A decoded page: one buffer holding the verified page bytes followed by
/// the entry-offset table `entries` reads them through. Decoded pages are
/// shared immutably across the read path through PageHandle (see
/// src/format/page_cache.h), and a reader's handle keeps its page alive
/// after the cache evicts it, so nothing may mutate one after DecodePage.
/// Not copyable or movable: the view points into the page's own buffer.
class PageContents {
 public:
  PageContents() = default;
  PageContents(const PageContents&) = delete;
  PageContents& operator=(const PageContents&) = delete;

  const char* data() const { return buffer_.get(); }
  size_t raw_size() const { return raw_size_; }

  /// Bytes this page holds: its buffer plus this header.
  size_t ApproximateMemoryUsage() const {
    return raw_size_ + 4 * entries.size() + sizeof(PageContents);
  }

  PageEntries entries;

 private:
  friend Status DecodePage(Slice raw, uint64_t page_size_bytes,
                           PageContents* out);

  std::unique_ptr<char[]> buffer_;
  size_t raw_size_ = 0;
};

/// Decodes and checksum-verifies a page previously produced by PageBuilder.
/// `raw` must be exactly page_size_bytes long; its bytes are copied into the
/// result so the caller's buffer may be reused. Every entry is parsed once
/// here: a malformed one fails the decode, so later reads need no checks.
Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out);

}  // namespace lethe

#endif  // LETHE_FORMAT_PAGE_H_
