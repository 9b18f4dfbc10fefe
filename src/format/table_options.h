#ifndef LETHE_FORMAT_TABLE_OPTIONS_H_
#define LETHE_FORMAT_TABLE_OPTIONS_H_

#include <cstdint>

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

  /// B: maximum entries stored in one page. B is a cap: a page also closes
  /// when the next entry would overflow its byte budget (page_size_bytes
  /// minus 8 bytes of header and checksum), and a delete tile closes before
  /// B·h entries when needed so it never spans more than h pages.
  uint32_t entries_per_page = 4;

  /// h: pages per delete tile. Pages within a tile are ordered by delete
  /// key; entries within a page stay sorted on the sort key.
  uint32_t pages_per_tile = 1;

  /// Bloom filter bits per key (m/N); one filter per page.
  uint32_t bloom_bits_per_key = 10;

  // Reads always verify checksums: every page against its trailer, and the
  // metadata region against the footer's crc.
};

}  // namespace lethe

#endif  // LETHE_FORMAT_TABLE_OPTIONS_H_
