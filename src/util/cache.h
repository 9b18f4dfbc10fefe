#ifndef LETHE_UTIL_CACHE_H_
#define LETHE_UTIL_CACHE_H_

#include <cstdint>
#include <memory>

#include "src/util/slice.h"

namespace lethe {

/// Charge-accounted cache with a LevelDB-style handle API. Entries are
/// (key, value) pairs with an explicit charge against the cache's capacity;
/// a handle returned by Insert/Lookup pins the entry (its value stays alive)
/// until Release. Eviction is least-recently-used among unpinned entries.
///
/// The cache may temporarily exceed its capacity while entries are pinned
/// (classic LRU overflow); every Insert is admitted.
///
/// Reservations carve bytes out of the budget for memory the cache does not
/// own (memtables); see AdjustReservation/CacheReservation below.
///
/// The concrete implementation (NewShardedLRUCache) splits the key space
/// over 2^shard_bits independently locked shards so concurrent readers do
/// not serialize on one mutex.
class Cache {
 public:
  /// Opaque pinned-entry token.
  struct Handle {};

  /// Called when an entry is no longer referenced by the cache or by any
  /// handle; destroys the value.
  using Deleter = void (*)(const Slice& key, void* value);

  Cache() = default;
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  virtual ~Cache() = default;

  /// Inserts a mapping, replacing any current entry for `key`, and returns a
  /// handle pinning it. `deleter` runs when the entry is fully released.
  virtual Handle* Insert(const Slice& key, void* value, size_t charge,
                         Deleter deleter) = 0;

  /// Returns a handle pinning the entry for `key`, or nullptr. A hit
  /// refreshes the entry's recency.
  virtual Handle* Lookup(const Slice& key) = 0;

  /// Copy-out lookup: on a hit, runs `copy(value, arg)` under the cache's
  /// lock and returns true. Recency is refreshed exactly as by Lookup then
  /// Release, but with one lock acquisition and no pin. `copy` must be
  /// short and must not call into the cache.
  virtual bool LookupCopy(const Slice& key,
                          void (*copy)(void* value, void* arg),
                          void* arg) = 0;

  /// Unpins a handle obtained from Insert/Lookup.
  virtual void Release(Handle* handle) = 0;

  /// The value of a live handle.
  virtual void* Value(Handle* handle) = 0;

  /// Drops the entry for `key` if present. Pinned entries are detached
  /// immediately (no longer findable) and destroyed on last Release.
  virtual void Erase(const Slice& key) = 0;

  /// Drops every entry whose key satisfies `predicate` (same detach
  /// semantics as Erase). Used for bulk invalidation, e.g. all pages of a
  /// deleted file.
  virtual void EraseIf(bool (*predicate)(const Slice& key, void* arg),
                       void* arg) = 0;

  /// Adjusts the reservation — bytes charged against the budget on behalf
  /// of memory the cache does not own (memtables) — by `delta` (may be
  /// negative; the total is clamped at 0). Raising the reservation evicts
  /// unpinned entries until the resident charge fits the reduced block
  /// budget. Reservations are *forced*: they always succeed, because the
  /// write path cannot drop a memtable the way a read path can skip a cache
  /// fill; if the reservation alone exceeds the capacity, the block budget
  /// is simply zero.
  virtual void AdjustReservation(int64_t delta) = 0;

  /// Current total reservation.
  virtual size_t ReservedBytes() const = 0;

  /// Sum of the charges of all resident entries (excludes reservations).
  virtual size_t TotalCharge() const = 0;

  /// Number of entries evicted by capacity pressure (not by Erase/EraseIf).
  virtual uint64_t NumEvictions() const = 0;

  virtual size_t capacity() const = 0;
};

/// RAII stake on a cache's budget for memory the cache does not own.
/// Set(bytes) re-points the stake at the new size (the cache evicts blocks
/// to make room when it grows); destruction returns the bytes. Default-
/// constructed = inactive (Set is a no-op), so callers without a budget
/// need no special-casing.
class CacheReservation {
 public:
  CacheReservation() = default;
  explicit CacheReservation(Cache* cache) : cache_(cache) {}
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
  Cache* cache_ = nullptr;
  size_t bytes_ = 0;
};

/// A Cache with `capacity` total charge across 2^shard_bits LRU shards.
std::unique_ptr<Cache> NewShardedLRUCache(size_t capacity, int shard_bits = 4);

}  // namespace lethe

#endif  // LETHE_UTIL_CACHE_H_
