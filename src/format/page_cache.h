#ifndef LETHE_FORMAT_PAGE_CACHE_H_
#define LETHE_FORMAT_PAGE_CACHE_H_

#include <cstdint>
#include <memory>

#include "src/core/statistics.h"
#include "src/format/page.h"
#include "src/format/table_blocks.h"
#include "src/util/cache.h"

namespace lethe {

/// Shared, immutable ownership of one decoded page. Everything downstream of
/// a page read (point lookups, iterator cursors, TableGetResult values)
/// holds one of these, so a cache hit costs a refcount bump — no I/O, no
/// re-decode, no allocation.
using PageHandle = std::shared_ptr<const PageContents>;

/// Engine-wide cache of decoded table blocks, layered on the sharded
/// two-priority LRU. Four block types share one charge-accounted budget,
/// distinguished by a type tag in the cache key:
///
///   - data pages, keyed (file_number, generation, page_index) — admitted
///     at low priority. KiWi's delete-tile layout makes the read path
///     page-read heavy (a point lookup may probe up to h pages per tile),
///     so a hit here skips both the Env read and the entry decode.
///   - fence/index blocks, keyed (file_number) — one per table, admitted at
///     high priority (Options::cache_index_and_filter_blocks).
///   - Bloom filter blocks, keyed (file_number, tile_index) — one per
///     delete tile, admitted at high priority: data-page churn evicts
///     the filters the lookup cost model assumes resident only once no
///     evictable page remains to give up.
///   - fragmented range-tombstone blocks, keyed (file_number) — one per
///     table, admitted at high priority. Not an on-disk block: the
///     fragmented index is derived CPU-side from the decoded table index,
///     and cached so the O(N log N) fragmentation runs once per table, not
///     once per read.
///
/// SSTable files are immutable except for KiWi's secondary range deletes,
/// which rewrite or drop pages in place. Those are fenced by `generation`
/// (FileMeta::page_generation): the rewrite installs a new FileMeta with a
/// bumped generation, and since the generation is part of the cache key, a
/// racing reader can at worst insert a pre-rewrite decode under the *old*
/// generation — unreachable from the new version, aged out by the LRU.
/// (The on-disk index and filters are never rewritten, so index/filter keys
/// carry no generation.) EvictPage/EvictFile reclaim the memory eagerly
/// (file numbers are never reused, so EvictFile too is about memory, not
/// correctness); EvictFile drops every block type of the file.
///
/// Counters flow into the engine Statistics when one is supplied: per-type
/// hits/misses, per-type charge gauges, and the overall
/// page_cache_charge_bytes/evictions pair.
class PageCache {
 public:
  /// The engine's shard count (log2): 16 independently locked shards keep
  /// concurrent readers from serializing on one mutex.
  static constexpr int kDefaultShardBits = 4;

  /// `capacity_bytes` is the total charge budget; `stats` may be nullptr.
  PageCache(size_t capacity_bytes, int shard_bits, Statistics* stats);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // ---- data pages ---------------------------------------------------------

  /// On hit, sets `*page` (pinned by shared ownership) and returns true.
  bool Lookup(uint64_t file_number, uint32_t page_index, PageHandle* page,
              uint32_t generation = 0);

  /// Caches a freshly decoded page, charged its decoded footprint: the page
  /// bytes, 4 bytes of offset table per entry, and the PageContents header.
  void Insert(uint64_t file_number, uint32_t page_index,
              const PageHandle& page, uint32_t generation = 0);

  // ---- fence/index blocks -------------------------------------------------

  bool LookupIndex(uint64_t file_number, TableIndexHandle* index);
  void InsertIndex(uint64_t file_number, const TableIndexHandle& index);

  // ---- fragmented range-tombstone blocks ----------------------------------

  /// One per table (keyed like the index block; a table's tombstone list is
  /// immutable, so no generation). Built CPU-side from the decoded index —
  /// caching it avoids re-fragmenting on every RT-consulting read.
  bool LookupFragmentedRt(uint64_t file_number, FragmentedRtHandle* rt);
  void InsertFragmentedRt(uint64_t file_number, const FragmentedRtHandle& rt);

  // ---- Bloom filter blocks ------------------------------------------------

  bool LookupFilter(uint64_t file_number, uint32_t tile_index,
                    FilterBlockHandle* filter);
  void InsertFilter(uint64_t file_number, uint32_t tile_index,
                    const FilterBlockHandle& filter);

  // ---- invalidation -------------------------------------------------------

  /// Reclaims one data page of one generation (rewritten or dropped by a
  /// secondary range delete).
  void EvictPage(uint64_t file_number, uint32_t page_index,
                 uint32_t generation = 0);

  /// Reclaims every cached block of `file_number` — pages of all
  /// generations, the index block, and every filter block (file deleted).
  void EvictFile(uint64_t file_number);

  size_t TotalCharge() const { return cache_->TotalCharge(); }
  size_t capacity() const { return cache_->capacity(); }
  size_t ReservedBytes() const { return cache_->ReservedBytes(); }

  /// The underlying charge-accounted cache; reservations (write-buffer
  /// accounting) stake against it via CacheReservation.
  Cache* cache() { return cache_.get(); }

  /// The statistics sink, for callers (readers) that count block loads.
  Statistics* stats() { return stats_; }

 private:
  /// Shared insert tail: releases the insert's handle and refreshes the
  /// gauges.
  void FinishInsert(Cache::Handle* handle);

  void PublishGauges();

  std::unique_ptr<Cache> cache_;
  Statistics* stats_;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_PAGE_CACHE_H_
