#ifndef LETHE_FORMAT_PAGE_CACHE_H_
#define LETHE_FORMAT_PAGE_CACHE_H_

#include <cstdint>
#include <memory>

#include "src/core/statistics.h"
#include "src/format/page.h"
#include "src/util/cache.h"

namespace lethe {

/// Shared, immutable ownership of one decoded page. Everything downstream of
/// a page read (point lookups, iterator cursors, TableGetResult values)
/// holds one of these, so a cache hit costs a refcount bump — no I/O, no
/// re-decode, no allocation.
using PageHandle = std::shared_ptr<const PageContents>;

/// Engine-wide cache of decoded data pages, keyed (file_number, generation,
/// page_index) on the sharded LRU. KiWi's delete-tile layout makes the read
/// path page-read heavy (a point lookup may probe up to h pages per tile),
/// so a hit here skips both the Env read and the entry decode. Table
/// metadata (fences, Bloom filters, range tombstones) is not cached here:
/// each open SSTableReader keeps its own for its lifetime.
///
/// SSTable files are immutable except for KiWi's secondary range deletes,
/// which rewrite or drop pages in place. Those are fenced by `generation`
/// (FileMeta::page_generation): the rewrite installs a new FileMeta with a
/// bumped generation, and since the generation is part of the cache key, a
/// racing reader can at worst insert a pre-rewrite decode under the *old*
/// generation — unreachable from the new version, aged out by the LRU.
/// EvictPage/EvictFile reclaim the memory eagerly (file numbers are never
/// reused, so EvictFile too is about memory, not correctness).
///
/// Counters flow into the engine Statistics when one is supplied: hits,
/// misses, and the page_cache_charge_bytes/evictions pair.
class PageCache {
 public:
  /// The engine's shard count (log2): 16 independently locked shards keep
  /// concurrent readers from serializing on one mutex.
  static constexpr int kDefaultShardBits = 4;

  /// `capacity_bytes` is the total charge budget; `stats` may be nullptr.
  PageCache(size_t capacity_bytes, int shard_bits, Statistics* stats);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// On hit, sets `*page` (pinned by shared ownership) and returns true.
  bool Lookup(uint64_t file_number, uint32_t page_index, PageHandle* page,
              uint32_t generation = 0);

  /// Caches a freshly decoded page, charged its decoded footprint: the page
  /// bytes, 4 bytes of offset table per entry, and the PageContents header.
  void Insert(uint64_t file_number, uint32_t page_index,
              const PageHandle& page, uint32_t generation = 0);

  /// Reclaims one data page of one generation (rewritten or dropped by a
  /// secondary range delete).
  void EvictPage(uint64_t file_number, uint32_t page_index,
                 uint32_t generation = 0);

  /// Reclaims every cached page of `file_number`, of all generations (file
  /// deleted).
  void EvictFile(uint64_t file_number);

  size_t TotalCharge() const { return cache_->TotalCharge(); }
  size_t capacity() const { return cache_->capacity(); }
  size_t ReservedBytes() const { return cache_->ReservedBytes(); }

  /// The underlying charge-accounted cache; reservations (write-buffer
  /// accounting) stake against it via CacheReservation.
  Cache* cache() { return cache_.get(); }

 private:
  void PublishGauges();

  std::unique_ptr<Cache> cache_;
  Statistics* stats_;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_PAGE_CACHE_H_
