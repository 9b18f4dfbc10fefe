#include "src/util/cache.h"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/util/hash.h"

namespace lethe {

namespace {

/// An entry is a variable-length heap allocation: the struct followed by the
/// key bytes. Entries sit in one of the shard's two circular lists (see
/// LRUShard) while resident and are destroyed when the last reference —
/// the cache's own or a client handle's — goes away.
struct LRUHandle {
  void* value;
  Cache::Deleter deleter;
  LRUHandle* next_hash;  // chain of the shard's HandleTable bucket
  LRUHandle* next;
  LRUHandle* prev;
  size_t charge;
  size_t key_length;
  uint32_t hash;     // Hash32 of the key, computed once per call
  bool in_cache;     // whether the shard's table still points at this entry
  uint32_t refs;     // client handles, plus one for the cache while in_cache
  char key_data[1];

  Slice key() const { return Slice(key_data, key_length); }
};

uint32_t HashKey(const Slice& key) {
  return Hash32(key.data(), key.size(), 0xa5c395u);
}

/// A shard's index of resident entries: an intrusive chained hash table
/// over the entries' own `next_hash` links, keyed by the hash each entry
/// stores. A call hashes its key once (ShardedLRUCache picks the shard from
/// the top bits, the bucket comes from the low bits), and chains compare
/// stored hashes before key bytes.
class HandleTable {
 public:
  HandleTable() : buckets_(kMinBuckets, nullptr) {}

  LRUHandle* Lookup(const Slice& key, uint32_t hash) {
    return *FindPointer(key, hash);
  }

  /// Indexes `e` and returns the entry it displaced (same key), if any.
  LRUHandle* Insert(LRUHandle* e) {
    LRUHandle** slot = FindPointer(e->key(), e->hash);
    LRUHandle* old = *slot;
    e->next_hash = old == nullptr ? nullptr : old->next_hash;
    *slot = e;
    if (old == nullptr && ++size_ > buckets_.size()) {
      Grow();
    }
    return old;
  }

  /// Unindexes and returns the entry for `key`, if any.
  LRUHandle* Remove(const Slice& key, uint32_t hash) {
    LRUHandle** slot = FindPointer(key, hash);
    LRUHandle* e = *slot;
    if (e != nullptr) {
      *slot = e->next_hash;
      size_--;
    }
    return e;
  }

 private:
  static constexpr size_t kMinBuckets = 16;

  /// The link that points at the entry for `key`, or the null link ending
  /// its chain.
  LRUHandle** FindPointer(const Slice& key, uint32_t hash) {
    LRUHandle** slot = &buckets_[hash & (buckets_.size() - 1)];
    while (*slot != nullptr &&
           ((*slot)->hash != hash || (*slot)->key() != key)) {
      slot = &(*slot)->next_hash;
    }
    return slot;
  }

  /// Doubles the bucket count, keeping the load factor at most 1.
  void Grow() {
    std::vector<LRUHandle*> grown(buckets_.size() * 2, nullptr);
    for (LRUHandle* e : buckets_) {
      while (e != nullptr) {
        LRUHandle* next = e->next_hash;
        LRUHandle*& head = grown[e->hash & (grown.size() - 1)];
        e->next_hash = head;
        head = e;
        e = next;
      }
    }
    buckets_.swap(grown);
  }

  std::vector<LRUHandle*> buckets_;  // power-of-two count
  size_t size_ = 0;
};

/// One independently locked LRU cache. Invariant (LevelDB's): a resident
/// entry is on exactly one of two lists — `lru_` (refs == 1: only the cache
/// references it, evictable, oldest first) or `in_use_` (refs >= 2: pinned
/// by at least one client handle).
class LRUShard {
 public:
  LRUShard() {
    lru_.next = &lru_;
    lru_.prev = &lru_;
    in_use_.next = &in_use_;
    in_use_.prev = &in_use_;
  }

  ~LRUShard() {
    assert(in_use_.next == &in_use_);  // no outstanding handles
    for (LRUHandle* e = lru_.next; e != &lru_;) {
      LRUHandle* next = e->next;
      assert(e->in_cache && e->refs == 1);
      e->in_cache = false;
      if (Unref(e)) {
        Free(e);
      }
      e = next;
    }
  }

  void SetCapacity(size_t capacity) { capacity_ = capacity; }

  Cache::Handle* Insert(const Slice& key, uint32_t hash, void* value,
                        size_t charge, Cache::Deleter deleter) {
    LRUHandle* e = static_cast<LRUHandle*>(
        malloc(sizeof(LRUHandle) - 1 + key.size()));
    e->value = value;
    e->deleter = deleter;
    e->charge = charge;
    e->key_length = key.size();
    e->hash = hash;
    e->in_cache = false;
    e->refs = 1;  // the returned handle
    memcpy(e->key_data, key.data(), key.size());

    std::vector<LRUHandle*> dead;  // deleters run after the lock is dropped
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (capacity_ > 0) {
        e->refs++;
        e->in_cache = true;
        Append(&in_use_, e);
        usage_.fetch_add(charge, std::memory_order_relaxed);
        LRUHandle* old = table_.Insert(e);
        if (old != nullptr) {
          Detach(old, &dead);
        }
        EvictWhileOver(&dead);
      }  // capacity 0: pass-through — the entry lives only as the handle
    }
    FreeAll(dead);
    return reinterpret_cast<Cache::Handle*>(e);
  }

  Cache::Handle* Lookup(const Slice& key, uint32_t hash) {
    std::lock_guard<std::mutex> lock(mu_);
    LRUHandle* e = table_.Lookup(key, hash);
    if (e == nullptr) {
      return nullptr;
    }
    Ref(e);
    return reinterpret_cast<Cache::Handle*>(e);
  }

  bool LookupCopy(const Slice& key, uint32_t hash,
                  void (*copy)(void* value, void* arg), void* arg) {
    std::lock_guard<std::mutex> lock(mu_);
    LRUHandle* e = table_.Lookup(key, hash);
    if (e == nullptr) {
      return false;
    }
    (*copy)(e->value, arg);
    if (e->refs == 1) {
      // Unpinned: most recent, where Ref then Unref moves it.
      Remove(e);
      Append(&lru_, e);
    }
    return true;
  }

  void Release(Cache::Handle* handle) {
    LRUHandle* e = reinterpret_cast<LRUHandle*>(handle);
    bool is_dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      is_dead = Unref(e);
    }
    if (is_dead) {
      Free(e);
    }
  }

  void Erase(const Slice& key, uint32_t hash) {
    std::vector<LRUHandle*> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      LRUHandle* e = table_.Remove(key, hash);
      if (e == nullptr) {
        return;
      }
      Detach(e, &dead);
    }
    FreeAll(dead);
  }

  void EraseIf(bool (*predicate)(const Slice& key, void* arg), void* arg) {
    std::vector<LRUHandle*> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Every resident entry is on exactly one of the two lists.
      std::vector<LRUHandle*> victims;
      for (LRUHandle* list : {&lru_, &in_use_}) {
        for (LRUHandle* e = list->next; e != list; e = e->next) {
          if (predicate(e->key(), arg)) {
            victims.push_back(e);
          }
        }
      }
      for (LRUHandle* e : victims) {
        table_.Remove(e->key(), e->hash);
        Detach(e, &dead);
      }
    }
    FreeAll(dead);
  }

  /// Re-points this shard's slice of the reservation; a raise evicts down
  /// to the shrunken block budget.
  void SetReservation(size_t bytes) {
    std::vector<LRUHandle*> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reserved_ = bytes;
      EvictWhileOver(&dead);
    }
    FreeAll(dead);
  }

  // The counters are plain atomics so gauge publication (which sums every
  // shard on each insert) never touches the shard mutexes.
  size_t TotalCharge() const {
    return usage_.load(std::memory_order_relaxed);
  }

  uint64_t NumEvictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  static void Remove(LRUHandle* e) {
    e->next->prev = e->prev;
    e->prev->next = e->next;
  }

  /// Appends before the dummy head: `list->prev` is the most recent entry.
  static void Append(LRUHandle* list, LRUHandle* e) {
    e->next = list;
    e->prev = list->prev;
    e->prev->next = e;
    e->next->prev = e;
  }

  size_t BlockBudget() const {
    return capacity_ - (reserved_ < capacity_ ? reserved_ : capacity_);
  }

  /// Evicts unpinned entries, oldest first, while the resident charge
  /// exceeds the block budget. Must be called with mu_ held.
  void EvictWhileOver(std::vector<LRUHandle*>* dead) {
    const size_t budget = BlockBudget();
    while (usage_.load(std::memory_order_relaxed) > budget) {
      LRUHandle* oldest = lru_.next;
      if (oldest == &lru_) {
        break;  // everything left is pinned
      }
      assert(oldest->refs == 1);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      table_.Remove(oldest->key(), oldest->hash);
      Detach(oldest, dead);
    }
  }

  void Ref(LRUHandle* e) {
    if (e->refs == 1 && e->in_cache) {
      Remove(e);
      Append(&in_use_, e);
    }
    e->refs++;
  }

  /// Drops one reference. Returns true when the entry is dead; the caller
  /// destroys it via Free() *after* releasing the shard mutex, so value
  /// deleters (freeing whole decoded pages) never run under the lock.
  bool Unref(LRUHandle* e) {
    assert(e->refs > 0);
    e->refs--;
    if (e->refs == 0) {
      assert(!e->in_cache);
      return true;
    }
    if (e->in_cache && e->refs == 1) {
      // Last client handle released: becomes evictable, most recent.
      Remove(e);
      Append(&lru_, e);
    }
    return false;
  }

  static void Free(LRUHandle* e) {
    (*e->deleter)(e->key(), e->value);
    free(e);
  }

  static void FreeAll(const std::vector<LRUHandle*>& dead) {
    for (LRUHandle* e : dead) {
      Free(e);
    }
  }

  /// Removes a resident entry from its list and drops the cache's own
  /// reference; the table entry must already be gone. Dead entries are
  /// appended to `*dead` for destruction outside the lock.
  void Detach(LRUHandle* e, std::vector<LRUHandle*>* dead) {
    assert(e->in_cache);
    Remove(e);
    e->in_cache = false;
    usage_.fetch_sub(e->charge, std::memory_order_relaxed);
    if (Unref(e)) {
      dead->push_back(e);
    }
  }

  mutable std::mutex mu_;
  size_t capacity_ = 0;
  size_t reserved_ = 0;  // this shard's slice of the global reservation
  std::atomic<size_t> usage_{0};
  std::atomic<uint64_t> evictions_{0};
  LRUHandle lru_;     // dummy head; lru_.next is the first victim
  LRUHandle in_use_;  // dummy head; order within is irrelevant
  HandleTable table_;
};

class ShardedLRUCache final : public Cache {
 public:
  ShardedLRUCache(size_t capacity, int shard_bits)
      : shard_bits_(shard_bits), shards_(size_t{1} << shard_bits) {
    const size_t per_shard =
        (capacity + shards_.size() - 1) / shards_.size();
    for (LRUShard& shard : shards_) {
      shard.SetCapacity(per_shard);
    }
    capacity_ = per_shard * shards_.size();
  }

  Handle* Insert(const Slice& key, void* value, size_t charge,
                 Deleter deleter) override {
    const uint32_t hash = HashKey(key);
    return ShardFor(hash).Insert(key, hash, value, charge, deleter);
  }

  Handle* Lookup(const Slice& key) override {
    const uint32_t hash = HashKey(key);
    return ShardFor(hash).Lookup(key, hash);
  }

  bool LookupCopy(const Slice& key, void (*copy)(void* value, void* arg),
                  void* arg) override {
    const uint32_t hash = HashKey(key);
    return ShardFor(hash).LookupCopy(key, hash, copy, arg);
  }

  void Release(Handle* handle) override {
    LRUHandle* e = reinterpret_cast<LRUHandle*>(handle);
    ShardFor(e->hash).Release(handle);
  }

  void* Value(Handle* handle) override {
    return reinterpret_cast<LRUHandle*>(handle)->value;
  }

  void Erase(const Slice& key) override {
    const uint32_t hash = HashKey(key);
    ShardFor(hash).Erase(key, hash);
  }

  void EraseIf(bool (*predicate)(const Slice& key, void* arg),
               void* arg) override {
    for (LRUShard& shard : shards_) {
      shard.EraseIf(predicate, arg);
    }
  }

  void AdjustReservation(int64_t delta) override {
    std::lock_guard<std::mutex> lock(reservation_mu_);
    int64_t total = static_cast<int64_t>(reserved_) + delta;
    if (total < 0) {
      total = 0;
    }
    reserved_ = static_cast<size_t>(total);
    // Spread evenly, rounding up: the per-shard sum may over-reserve by up
    // to (num_shards - 1) bytes, which errs on the side of the budget.
    const size_t per_shard =
        (reserved_ + shards_.size() - 1) / shards_.size();
    for (LRUShard& shard : shards_) {
      shard.SetReservation(per_shard);
    }
  }

  size_t ReservedBytes() const override {
    std::lock_guard<std::mutex> lock(reservation_mu_);
    return reserved_;
  }

  size_t TotalCharge() const override {
    size_t total = 0;
    for (const LRUShard& shard : shards_) {
      total += shard.TotalCharge();
    }
    return total;
  }

  uint64_t NumEvictions() const override {
    uint64_t total = 0;
    for (const LRUShard& shard : shards_) {
      total += shard.NumEvictions();
    }
    return total;
  }

  size_t capacity() const override { return capacity_; }

 private:
  /// The top bits of the hash pick the shard; HandleTable buckets use the
  /// low bits.
  LRUShard& ShardFor(uint32_t hash) {
    return shards_[shard_bits_ == 0 ? 0 : hash >> (32 - shard_bits_)];
  }

  int shard_bits_;
  size_t capacity_;
  mutable std::mutex reservation_mu_;  // serializes reservation updates
  size_t reserved_ = 0;
  std::vector<LRUShard> shards_;
};

}  // namespace

std::unique_ptr<Cache> NewShardedLRUCache(size_t capacity, int shard_bits) {
  assert(shard_bits >= 0 && shard_bits <= 8);
  return std::make_unique<ShardedLRUCache>(capacity, shard_bits);
}

}  // namespace lethe
