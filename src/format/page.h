#ifndef LETHE_FORMAT_PAGE_H_
#define LETHE_FORMAT_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/format/entry.h"
#include "src/util/coding.h"
#include "src/util/status.h"

namespace lethe {

/// A page on disk is exactly page_size_bytes long:
///   varint32 num_entries | varint32 prefix_len | prefix | entries...
///   | zero padding | fixed32 crc32c
/// `prefix` is the longest common prefix of the page's smallest and largest
/// sort key, so every key on the page starts with it (a one-entry page's
/// prefix is its whole key). Each entry is stored as EncodeEntry lays out
/// the entry with its key cut down to the suffix after the prefix:
///   varint32 suffix_len | suffix | varint64 (seq<<8 | type)
///   | varint64 delete_key | varint32 value_len | value
/// The CRC covers everything before it. A page is never larger than the
/// same entries stored whole behind a fixed32 count: the prefix is paid
/// once and saved on every entry, and the two header varints take at most
/// the four bytes the count would.

/// Bytes a page's entry count, prefix length and prefix take.
inline size_t PageHeaderSize(uint32_t num_entries, size_t prefix_size) {
  return VarintLength(num_entries) + VarintLength(prefix_size) + prefix_size;
}

/// Bytes an entry of `encoded_size` EncodeEntry bytes with a `key_size`-byte
/// sort key takes in a page whose keys share their first `prefix_size`
/// bytes. Never more than encoded_size, and smaller as the prefix grows.
inline size_t PageEntrySize(size_t encoded_size, size_t key_size,
                            size_t prefix_size) {
  return encoded_size - VarintLength(key_size) - prefix_size +
         VarintLength(key_size - prefix_size);
}

/// Counts the bytes one page takes before its checksum — header, prefix
/// and entries — as entries join it, in any order. The prefix is the
/// longest one the first key shares with every later key, which is the
/// common prefix of the smallest and largest key; it only shrinks as
/// entries join.
class PageSizer {
 public:
  /// Counts an entry of `encoded_size` EncodeEntry bytes with sort key
  /// `key` if the page then takes at most `limit` bytes; returns whether it
  /// did.
  bool Add(const Slice& key, size_t encoded_size, size_t limit);

  void Clear();

  uint32_t num_entries() const {
    return static_cast<uint32_t>(key_sizes_.size());
  }
  size_t prefix_size() const { return prefix_size_; }
  /// The first key counted; its first prefix_size() bytes are the prefix.
  const std::string& first_key() const { return first_key_; }

  /// The page's bytes before its checksum.
  size_t bytes() const {
    return PageHeaderSize(num_entries(), prefix_size_) + unprefixed_bytes_ -
           key_sizes_.size() * prefix_size_ + suffix_length_bytes_;
  }

 private:
  std::string first_key_;
  std::vector<uint32_t> key_sizes_;  // to recount suffix lengths
  size_t prefix_size_ = 0;
  /// Sum over the entries of their EncodeEntry bytes less the key length
  /// varint, and of their suffix length varints.
  size_t unprefixed_bytes_ = 0;
  size_t suffix_length_bytes_ = 0;
};

/// Writes one page in the layout above into *page, replacing its contents
/// and reusing its storage: `entries`, each as EncodeEntry wrote it, in the
/// order given, with their keys cut after `prefix` (which every key starts
/// with), then zero padding to page_size_bytes and the checksum. Returns
/// false if they do not fit; a PageSizer counts beforehand whether they do.
bool EncodePage(std::span<const Slice> entries, const Slice& prefix,
                uint64_t page_size_bytes, std::string* page);

/// Builds one page in the layout above. Entries are stored in the order
/// they are added; callers add them sorted by sort key (for KiWi the caller
/// sorts a page's entries before adding them), which in-page binary search
/// relies on.
class PageBuilder {
 public:
  PageBuilder(uint64_t page_size_bytes, uint32_t max_entries);

  /// Returns true if the entry was accepted; false if it would overflow the
  /// page (by entry count or bytes).
  bool Add(const ParsedEntry& entry);

  /// Add for an entry already serialized by EncodeEntry.
  bool AddEncoded(const Slice& encoded);

  bool empty() const { return sizer_.num_entries() == 0; }
  uint32_t num_entries() const { return sizer_.num_entries(); }

  /// Serializes the page (padded to page_size_bytes) and resets the builder.
  std::string Finish();

 private:
  /// Counts the entry in the page if it fits.
  bool HasRoom(const Slice& key, size_t encoded_size);

  uint64_t page_size_bytes_;
  uint32_t max_entries_;
  PageSizer sizer_;
  std::string entries_;  // the added entries, as EncodeEntry writes them
  std::vector<uint32_t> starts_;  // each entry's offset in entries_
};

class PageContents;
Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out);

/// Read-only view of a decoded page's entries. DecodePage puts every
/// entry's key prefix back, so the entries lie back to back as EncodeEntry
/// writes them; nothing else is stored per entry but its byte offset.
/// `operator[]` and iteration decode an entry on demand into a ParsedEntry
/// whose slices alias the decoded bytes. DecodePage validated every entry,
/// so these accessors decode unchecked.
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

  const char* data_ = nullptr;     // the decoded entries
  const char* offsets_ = nullptr;  // fixed32 offset of each entry in data_
  uint32_t size_ = 0;
};

/// A decoded page: one buffer holding the page's entries as EncodeEntry
/// writes them, whole keys included, followed by the entry-offset table
/// `entries` reads them through. The buffer is sized exactly: smaller than
/// the page on disk by its padding, larger by each key's prefix. Decoded
/// pages are shared immutably across the read path through PageHandle (see
/// src/format/page_cache.h), and a reader's handle keeps its page alive
/// after the cache evicts it, so nothing may mutate one after DecodePage.
/// Not copyable or movable: the view points into the page's own buffer.
class PageContents {
 public:
  PageContents() = default;
  PageContents(const PageContents&) = delete;
  PageContents& operator=(const PageContents&) = delete;

  /// The decoded entries, back to back.
  Slice data() const { return Slice(buffer_.get(), data_size_); }

  /// Bytes this page holds: its buffer (the decoded entries and a 4-byte
  /// offset per entry) plus this header.
  size_t ApproximateMemoryUsage() const {
    return data_size_ + 4 * entries.size() + sizeof(PageContents);
  }

  PageEntries entries;

 private:
  friend Status DecodePage(Slice raw, uint64_t page_size_bytes,
                           PageContents* out);

  std::unique_ptr<char[]> buffer_;
  size_t data_size_ = 0;
};

/// Decodes and checksum-verifies a page previously produced by PageBuilder.
/// `raw` must be exactly page_size_bytes long. One pass parses every entry
/// and sizes the result, a second writes each entry with its prefix put
/// back; nothing in the result points into `raw`, so the caller's buffer
/// may be reused. A malformed entry fails the decode, so later reads need
/// no checks.
Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out);

}  // namespace lethe

#endif  // LETHE_FORMAT_PAGE_H_
