#ifndef LETHE_FORMAT_TABLE_BLOCKS_H_
#define LETHE_FORMAT_TABLE_BLOCKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/format/range_tombstone.h"
#include "src/util/slice.h"

namespace lethe {

/// Decoded per-page index record. Sort-key fences may be conservatively wide
/// after partial page drops (the on-disk index is immutable; see
/// FileMeta::dropped_pages). `bloom` is resolvable in two ways: pinned
/// readers set it directly (aliasing TableIndex::buffer); lazily-loaded
/// filters locate it inside the owning tile's FilterBlock via
/// filter_offset/filter_len.
struct PageInfo {
  Slice min_sort_key;
  Slice max_sort_key;
  uint64_t min_delete_key = UINT64_MAX;
  uint64_t max_delete_key = 0;
  uint32_t num_entries = 0;
  uint32_t num_tombstones = 0;
  uint32_t filter_offset = 0;  // byte offset within the tile's filter block
  uint32_t filter_len = 0;
  Slice bloom;  // set only when the table's filters are pinned
};

/// One delete tile: `page_count` consecutive pages starting at `first_page`,
/// internally ordered by delete key. Tiles partition the file's sort-key
/// space; `min/max_sort_key` are the tile-level fence pointers on S. The
/// filter_* fields address the tile's Bloom filter block inside the file.
struct TileInfo {
  uint32_t first_page = 0;
  uint32_t page_count = 0;
  Slice min_sort_key;
  Slice max_sort_key;
  uint64_t filter_offset = 0;  // absolute file offset of the filter block
  uint32_t filter_len = 0;
  // In-memory digest of the filter block, derived at a lazy index load from
  // the checksum-verified metadata region; unset in pinned indexes.
  uint32_t filter_crc = 0;
};

/// The decoded metadata of one table — fence/index structure plus range
/// tombstones — as one cacheable unit. `buffer` backs every Slice in
/// `pages`/`tiles` (and, for pinned readers, the filter bytes too), so a
/// TableIndex is immovable once parsed: it is always heap-allocated and
/// shared immutably via TableIndexHandle.
struct TableIndex {
  TableIndex() = default;
  TableIndex(const TableIndex&) = delete;
  TableIndex& operator=(const TableIndex&) = delete;

  std::string buffer;
  std::vector<PageInfo> pages;
  std::vector<TileInfo> tiles;
  std::vector<RangeTombstone> range_tombstones;
  uint32_t pages_per_tile = 1;

  /// Some user key has >1 version in this file (possible only when a pinned
  /// snapshot forced retention). Point lookups must then select the best
  /// visible version across all candidate pages instead of returning the
  /// first match, since the weave orders pages by delete key.
  bool multi_version = false;

  /// Charge against the cache budget: backing bytes plus the parsed
  /// structures.
  size_t ApproximateMemoryUsage() const {
    size_t total = sizeof(*this) + buffer.size() +
                   pages.size() * sizeof(PageInfo) +
                   tiles.size() * sizeof(TileInfo);
    for (const RangeTombstone& rt : range_tombstones) {
      total += sizeof(RangeTombstone) + rt.begin_key.size() +
               rt.end_key.size();
    }
    return total;
  }
};

/// Shared, immutable ownership of one decoded table index.
using TableIndexHandle = std::shared_ptr<const TableIndex>;

/// Shared, immutable ownership of one table's fragmented range-tombstone
/// index (built lazily from TableIndex::range_tombstones on the first
/// RT-consulting read; cached in the block cache alongside the index).
using FragmentedRtHandle = std::shared_ptr<const FragmentedRangeTombstoneList>;

/// One delete tile's Bloom filter block: the concatenated per-page filters,
/// located per page via PageInfo::filter_offset/filter_len.
struct FilterBlock {
  std::string data;

  size_t ApproximateMemoryUsage() const {
    return sizeof(*this) + data.size();
  }
};

/// Shared, immutable ownership of one tile's filter block.
using FilterBlockHandle = std::shared_ptr<const FilterBlock>;

/// The Bloom filter bytes of page `page`, resolved against its tile's
/// filter block (`filter` may be nullptr when the page's `bloom` slice is
/// already pinned).
inline Slice BloomOf(const PageInfo& page, const FilterBlock* filter) {
  if (filter == nullptr) {
    return page.bloom;
  }
  return Slice(filter->data.data() + page.filter_offset, page.filter_len);
}

}  // namespace lethe

#endif  // LETHE_FORMAT_TABLE_BLOCKS_H_
