#ifndef LETHE_FORMAT_TABLE_OPTIONS_H_
#define LETHE_FORMAT_TABLE_OPTIONS_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/format/entry.h"

namespace lethe {

/// Physical layout knobs for SSTables. These are the KiWi tuning parameters
/// from the paper: B (entries per page), h (pages per delete tile), and the
/// Bloom filter budget. h = 1 reproduces the classic sort-key-only layout
/// used by the state-of-the-art baseline (§4.2.3: "h = 1 creates the same
/// layout as the state of the art").
struct TableOptions {
  /// Physical page size; pages are zero-padded to exactly this many bytes so
  /// page k lives at byte offset k * page_size_bytes and page-granular I/O
  /// accounting is exact.
  uint64_t page_size_bytes = 4096;

  /// B: an optional cap on entries stored in one page. By default there is
  /// no count cap and a page holds as many entries as fit its byte budget
  /// (PageByteBudget; keys are stored after the page's common prefix, see
  /// src/format/page.h). A caller that sets B — the paper's cost-model
  /// parameter — caps every page at B entries; either way a page closes
  /// when the next entry would overflow the budget, and a delete tile
  /// closes before B·h entries when needed so it never spans more than h
  /// pages. Code reads B through MaxEntriesPerPage below, never directly.
  uint32_t entries_per_page = std::numeric_limits<uint32_t>::max();

  /// h: pages per delete tile. Pages within a tile are ordered by delete
  /// key; entries within a page stay sorted on the sort key.
  uint32_t pages_per_tile = 1;

  /// Bloom filter bits per key (m/N); one filter per page.
  uint32_t bloom_bits_per_key = 10;

  // Reads always verify checksums: every page against its trailer, and the
  // metadata region against the footer's crc.
};

/// Bytes one page holds before its checksum (4): its header (entry count,
/// prefix length and prefix) and its entries, each key cut to the suffix
/// after the prefix (src/format/page.h).
inline uint64_t PageByteBudget(const TableOptions& options) {
  return options.page_size_bytes - 4;
}

/// The B the layout works with: the configured cap, bounded by the most
/// entries a page can physically hold — kMinEncodedEntrySize bytes each,
/// behind a header that for those takes at most 4 bytes (a varint count
/// and an empty prefix). The default options thus yield "as many as fit",
/// and the KiWi tile size h·B stays finite.
inline uint32_t MaxEntriesPerPage(const TableOptions& options) {
  return static_cast<uint32_t>(std::min<uint64_t>(
      options.entries_per_page,
      (PageByteBudget(options) - 4) / kMinEncodedEntrySize));
}

}  // namespace lethe

#endif  // LETHE_FORMAT_TABLE_OPTIONS_H_
