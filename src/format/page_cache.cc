#include "src/format/page_cache.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "src/util/coding.h"
#include "src/util/hash.h"

namespace lethe {

namespace {

/// A cached page's identity.
struct PageKey {
  uint64_t file_number;
  uint32_t generation;
  uint32_t page_index;

  bool operator==(const PageKey&) const = default;

  /// Hash32 of fixed64 file_number | fixed32 generation | fixed32
  /// page_index. The top bits pick the shard.
  uint32_t Hash() const {
    char buf[16];
    EncodeFixed64(buf, file_number);
    EncodeFixed32(buf + 8, generation);
    EncodeFixed32(buf + 12, page_index);
    return Hash32(buf, sizeof(buf), 0xa5c395u);
  }
};

struct PageKeyHash {
  size_t operator()(const PageKey& key) const { return key.Hash(); }
};

}  // namespace

/// The shard's pages live in a node-based map, and since map nodes never
/// move, the LRU list links them in place: a circular list through `head_`,
/// whose next is the oldest page (the first victim) and whose prev the most
/// recent.
class PageCache::Shard {
 public:
  Shard() : head_(PageKey{}, Entry{}) {
    head_.second.prev = &head_;
    head_.second.next = &head_;
  }

  void Init(size_t capacity, Statistics* stats) {
    capacity_ = capacity;
    stats_ = stats;
  }

  bool Lookup(const PageKey& key, PageHandle* page) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    *page = it->second.page;
    Unlink(&*it);
    Append(&*it);
    return true;
  }

  void Insert(const PageKey& key, const PageHandle& page, size_t charge) {
    std::vector<PageHandle> dead;  // destroyed after the lock is dropped
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = map_.try_emplace(key);
    Node* node = &*it;
    if (!fresh) {
      Unlink(node);
      Uncharge(node, &dead);
    }
    node->second.page = page;
    node->second.charge = charge;
    usage_ += charge;
    stats_->page_cache_charge_bytes.fetch_add(charge,
                                              std::memory_order_relaxed);
    // The new page is not linked yet, so it cannot be its own victim.
    EvictWhileOver(&dead);
    Append(node);
  }

  void Evict(const PageKey& key) {
    std::vector<PageHandle> dead;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      Remove(&*it, &dead);
    }
  }

  void EvictFile(uint64_t file_number) {
    std::vector<PageHandle> dead;
    std::lock_guard<std::mutex> lock(mu_);
    for (Node* node = head_.second.next; node != &head_;) {
      Node* next = node->second.next;
      if (node->first.file_number == file_number) {
        Remove(node, &dead);
      }
      node = next;
    }
  }

  /// Re-points this shard's slice of the reservation; a raise evicts down
  /// to the shrunken page budget.
  void SetReservation(size_t bytes) {
    std::vector<PageHandle> dead;
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ = bytes;
    EvictWhileOver(&dead);
  }

  size_t TotalCharge() const {
    std::lock_guard<std::mutex> lock(mu_);
    return usage_;
  }

 private:
  struct Entry;
  using Node = std::pair<const PageKey, Entry>;
  struct Entry {
    PageHandle page;
    size_t charge = 0;
    Node* prev = nullptr;
    Node* next = nullptr;
  };

  void Append(Node* node) {
    node->second.next = &head_;
    node->second.prev = head_.second.prev;
    node->second.prev->second.next = node;
    head_.second.prev = node;
  }

  static void Unlink(Node* node) {
    node->second.next->second.prev = node->second.prev;
    node->second.prev->second.next = node->second.next;
  }

  /// Takes an unlinked node's charge off the books and moves its page to
  /// `*dead`.
  void Uncharge(Node* node, std::vector<PageHandle>* dead) {
    usage_ -= node->second.charge;
    stats_->page_cache_charge_bytes.fetch_sub(node->second.charge,
                                              std::memory_order_relaxed);
    dead->push_back(std::move(node->second.page));
  }

  void Remove(Node* node, std::vector<PageHandle>* dead) {
    Unlink(node);
    Uncharge(node, dead);
    const PageKey key = node->first;  // erase must not read the dying node
    map_.erase(key);
  }

  /// Evicts the oldest pages while the charge exceeds the page budget.
  void EvictWhileOver(std::vector<PageHandle>* dead) {
    const size_t budget = capacity_ - std::min(reserved_, capacity_);
    while (usage_ > budget && head_.second.next != &head_) {
      stats_->page_cache_evictions.fetch_add(1, std::memory_order_relaxed);
      Remove(head_.second.next, dead);
    }
  }

  Statistics* stats_ = nullptr;
  size_t capacity_ = 0;
  mutable std::mutex mu_;  // guards the members below
  size_t reserved_ = 0;    // this shard's slice of the reservation
  size_t usage_ = 0;
  Node head_;
  std::unordered_map<PageKey, Entry, PageKeyHash> map_;
};

PageCache::PageCache(size_t capacity_bytes, int shard_bits, Statistics* stats)
    : shard_bits_(shard_bits),
      shards_(size_t{1} << shard_bits),
      stats_(stats) {
  assert(shard_bits >= 0 && shard_bits <= 8);
  assert(stats != nullptr);
  const size_t per_shard =
      (capacity_bytes + shards_.size() - 1) / shards_.size();
  for (Shard& shard : shards_) {
    shard.Init(per_shard, stats);
  }
  capacity_ = per_shard * shards_.size();
}

PageCache::~PageCache() = default;

PageCache::Shard& PageCache::ShardFor(uint32_t hash) {
  return shards_[shard_bits_ == 0 ? 0 : hash >> (32 - shard_bits_)];
}

bool PageCache::Lookup(uint64_t file_number, uint32_t page_index,
                       PageHandle* page, uint32_t generation) {
  const PageKey key{file_number, generation, page_index};
  const bool hit = ShardFor(key.Hash()).Lookup(key, page);
  (hit ? stats_->page_cache_hits : stats_->page_cache_misses)
      .fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void PageCache::Insert(uint64_t file_number, uint32_t page_index,
                       const PageHandle& page, uint32_t generation) {
  const PageKey key{file_number, generation, page_index};
  ShardFor(key.Hash()).Insert(key, page, page->ApproximateMemoryUsage());
}

void PageCache::EvictPage(uint64_t file_number, uint32_t page_index,
                          uint32_t generation) {
  const PageKey key{file_number, generation, page_index};
  ShardFor(key.Hash()).Evict(key);
}

void PageCache::EvictFile(uint64_t file_number) {
  for (Shard& shard : shards_) {
    shard.EvictFile(file_number);
  }
}

void PageCache::AdjustReservation(int64_t delta) {
  std::lock_guard<std::mutex> lock(reservation_mu_);
  reserved_ = static_cast<size_t>(
      std::max<int64_t>(0, static_cast<int64_t>(reserved_) + delta));
  // Spread evenly, rounding up: the per-shard sum may over-reserve by up to
  // (num_shards - 1) bytes, which errs on the side of the budget.
  const size_t per_shard = (reserved_ + shards_.size() - 1) / shards_.size();
  for (Shard& shard : shards_) {
    shard.SetReservation(per_shard);
  }
}

size_t PageCache::ReservedBytes() const {
  std::lock_guard<std::mutex> lock(reservation_mu_);
  return reserved_;
}

size_t PageCache::TotalCharge() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.TotalCharge();
  }
  return total;
}

}  // namespace lethe
