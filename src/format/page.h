#ifndef LETHE_FORMAT_PAGE_H_
#define LETHE_FORMAT_PAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/format/entry.h"
#include "src/util/status.h"

namespace lethe {

/// Builds one fixed-size disk page:
///   fixed32 num_entries | entries... | zero padding | fixed32 crc32c
/// The CRC covers everything before it. Entries are stored in the order they
/// are added; for KiWi the caller sorts them by sort key before adding.
class PageBuilder {
 public:
  PageBuilder(uint64_t page_size_bytes, uint32_t max_entries);

  /// Returns true if the entry was accepted; false if it would overflow the
  /// page (by entry count or bytes).
  bool Add(const ParsedEntry& entry);

  bool empty() const { return num_entries_ == 0; }
  uint32_t num_entries() const { return num_entries_; }

  /// Serializes the page (padded to page_size_bytes) and resets the builder.
  std::string Finish();

 private:
  uint64_t page_size_bytes_;
  uint32_t max_entries_;
  uint32_t num_entries_;
  std::string buffer_;  // entry bytes only (header/crc added in Finish)
};

/// A decoded page: owns the raw page bytes; `entries` alias them. Decoded
/// pages are shared immutably across the read path (see
/// src/format/page_cache.h), so nothing may mutate one after DecodePage.
struct PageContents {
  std::unique_ptr<char[]> data;
  size_t raw_size = 0;  // bytes held by `data`
  std::vector<ParsedEntry> entries;
};

/// Decodes and checksum-verifies a page previously produced by PageBuilder.
/// `raw` must be exactly page_size_bytes long; its bytes are copied into the
/// result so the caller's buffer may be reused.
Status DecodePage(Slice raw, uint64_t page_size_bytes, PageContents* out);

}  // namespace lethe

#endif  // LETHE_FORMAT_PAGE_H_
