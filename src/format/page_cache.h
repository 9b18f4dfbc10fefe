#ifndef LETHE_FORMAT_PAGE_CACHE_H_
#define LETHE_FORMAT_PAGE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/statistics.h"
#include "src/format/page.h"

namespace lethe {

/// Shared, immutable ownership of one decoded page. Everything downstream of
/// a page read (point lookups, iterator cursors, TableGetResult values)
/// holds one of these, so a cache hit costs a refcount bump — no I/O, no
/// re-decode, no allocation — and a page a reader holds outlives its
/// eviction.
using PageHandle = std::shared_ptr<const PageContents>;

/// Engine-wide LRU cache of decoded data pages. KiWi's delete-tile layout
/// makes the read path page-read heavy (a point lookup may probe up to h
/// pages per tile), so a hit here skips both the Env read and the entry
/// decode. Table metadata (fences, Bloom filters, range tombstones) is not
/// cached here: each open SSTableReader keeps its own for its lifetime.
///
/// The key space is split over 2^shard_bits independently locked shards so
/// concurrent readers do not serialize on one mutex. Each shard holds its
/// pages in one LRU list; an insert evicts the shard's oldest pages while
/// its charge exceeds its share of the budget, but never the page it is
/// inserting, so a page larger than the budget stays until the next insert.
/// Evicted pages are destroyed after the shard lock is dropped.
///
/// SSTable files are immutable except for KiWi's secondary range deletes,
/// which rewrite or drop pages in place. Those are fenced by `generation`
/// (FileMeta::page_generation): the rewrite installs a new FileMeta with a
/// bumped generation, and since the generation is part of the key, a racing
/// reader can at worst insert a pre-rewrite decode under the *old*
/// generation — unreachable from the new version, aged out by the LRU.
/// EvictPage/EvictFile reclaim the memory eagerly (file numbers are never
/// reused, so EvictFile too is about memory, not correctness).
///
/// Reservations carve bytes out of the budget for memory the cache does not
/// own (write buffers); see AdjustReservation and CacheReservation.
///
/// Every operation updates the engine Statistics as it happens: hits,
/// misses, evictions and the page_cache_charge_bytes gauge.
class PageCache {
 public:
  /// The engine's shard count (log2).
  static constexpr int kDefaultShardBits = 4;

  /// `capacity_bytes` is the total charge budget (each shard gets an equal
  /// share, rounded up); `stats` receives the counters and must outlive the
  /// cache.
  PageCache(size_t capacity_bytes, int shard_bits, Statistics* stats);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// On hit, sets `*page`, makes the page the shard's most recent and
  /// returns true.
  bool Lookup(uint64_t file_number, uint32_t page_index, PageHandle* page,
              uint32_t generation = 0);

  /// Caches a freshly decoded page as its shard's most recent, replacing
  /// any page under the same key, charged its decoded footprint
  /// (PageContents::ApproximateMemoryUsage).
  void Insert(uint64_t file_number, uint32_t page_index,
              const PageHandle& page, uint32_t generation = 0);

  /// Reclaims one data page of one generation (rewritten or dropped by a
  /// secondary range delete).
  void EvictPage(uint64_t file_number, uint32_t page_index,
                 uint32_t generation = 0);

  /// Reclaims every cached page of `file_number`, of all generations (file
  /// deleted).
  void EvictFile(uint64_t file_number);

  /// Adjusts the reservation — bytes charged against the budget on behalf
  /// of memory the cache does not own (memtables) — by `delta` (may be
  /// negative; the total is clamped at 0). Raising the reservation evicts
  /// pages until each shard's charge fits its share of the reduced page
  /// budget. Reservations are *forced*: they always succeed, because the
  /// write path cannot drop a memtable the way a read path can skip a cache
  /// fill; if the reservation alone exceeds the capacity, the page budget is
  /// simply zero.
  void AdjustReservation(int64_t delta);

  size_t ReservedBytes() const;

  /// Sum of the charges of all resident pages (excludes reservations).
  size_t TotalCharge() const;

  size_t capacity() const { return capacity_; }

 private:
  class Shard;  // one independently locked LRU (page_cache.cc)

  Shard& ShardFor(uint32_t hash);

  const int shard_bits_;
  std::vector<Shard> shards_;
  size_t capacity_;
  Statistics* const stats_;
  mutable std::mutex reservation_mu_;  // serializes reservation updates
  size_t reserved_ = 0;
};

/// RAII stake on a page cache's budget for memory the cache does not own.
/// Set(bytes) re-points the stake at the new size (the cache evicts pages
/// to make room when it grows); destruction returns the bytes. Default-
/// constructed = inactive (Set is a no-op), so callers without a budget
/// need no special-casing.
class CacheReservation {
 public:
  CacheReservation() = default;
  explicit CacheReservation(PageCache* cache) : cache_(cache) {}
  CacheReservation(const CacheReservation&) = delete;
  CacheReservation& operator=(const CacheReservation&) = delete;
  CacheReservation(CacheReservation&& other) noexcept
      : cache_(other.cache_), bytes_(other.bytes_) {
    other.cache_ = nullptr;
    other.bytes_ = 0;
  }
  CacheReservation& operator=(CacheReservation&& other) noexcept {
    if (this != &other) {
      Release();
      cache_ = other.cache_;
      bytes_ = other.bytes_;
      other.cache_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~CacheReservation() { Release(); }

  void Set(size_t bytes) {
    if (cache_ == nullptr || bytes == bytes_) {
      return;
    }
    cache_->AdjustReservation(static_cast<int64_t>(bytes) -
                              static_cast<int64_t>(bytes_));
    bytes_ = bytes;
  }

  void Release() {
    if (cache_ != nullptr && bytes_ > 0) {
      cache_->AdjustReservation(-static_cast<int64_t>(bytes_));
      bytes_ = 0;
    }
  }

  bool active() const { return cache_ != nullptr; }
  size_t bytes() const { return bytes_; }

 private:
  PageCache* cache_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_PAGE_CACHE_H_
