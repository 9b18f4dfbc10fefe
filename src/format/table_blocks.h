#ifndef LETHE_FORMAT_TABLE_BLOCKS_H_
#define LETHE_FORMAT_TABLE_BLOCKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/format/range_tombstone.h"
#include "src/util/slice.h"

namespace lethe {

/// Decoded per-page index record. Sort-key fences may be conservatively wide
/// after partial page drops (the on-disk index is immutable; see
/// FileMeta::dropped_pages). `bloom` aliases TableIndex::buffer.
struct PageInfo {
  Slice min_sort_key;
  Slice max_sort_key;
  uint64_t min_delete_key = UINT64_MAX;
  uint64_t max_delete_key = 0;
  uint32_t num_entries = 0;
  uint32_t num_tombstones = 0;
  Slice bloom;
};

/// One delete tile: `page_count` consecutive pages starting at `first_page`,
/// internally ordered by delete key. Tiles partition the file's sort-key
/// space; `min/max_sort_key` are the tile-level fence pointers on S.
struct TileInfo {
  uint32_t first_page = 0;
  uint32_t page_count = 0;
  Slice min_sort_key;
  Slice max_sort_key;
};

/// The decoded metadata of one table — fence/index structure, every page's
/// Bloom filter, and range tombstones. `buffer` backs every Slice in
/// `pages`/`tiles`, so a TableIndex is immovable once parsed; its reader
/// owns it for the reader's lifetime.
struct TableIndex {
  TableIndex() = default;
  TableIndex(const TableIndex&) = delete;
  TableIndex& operator=(const TableIndex&) = delete;

  std::string buffer;
  std::vector<PageInfo> pages;
  std::vector<TileInfo> tiles;
  std::vector<RangeTombstone> range_tombstones;

  /// Some user key has >1 version in this file (possible only when a pinned
  /// snapshot forced retention). Point lookups must then select the best
  /// visible version across all candidate pages instead of returning the
  /// first match, since the weave orders pages by delete key.
  bool multi_version = false;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_TABLE_BLOCKS_H_
