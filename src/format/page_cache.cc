#include "src/format/page_cache.h"

#include "src/util/coding.h"

namespace lethe {

namespace {

// fixed64 file_number | fixed32 generation | fixed32 page_index. The
// file-number prefix is what EvictFile matches on.
constexpr size_t kKeySize = 16;

void EncodePageKey(uint64_t file_number, uint32_t generation,
                   uint32_t page_index, char* buf) {
  EncodeFixed64(buf, file_number);
  EncodeFixed32(buf + 8, generation);
  EncodeFixed32(buf + 12, page_index);
}

void DeletePageValue(const Slice&, void* value) {
  delete static_cast<PageHandle*>(value);
}

// Copy-out callback for Cache::LookupCopy: a hit copies the shared handle
// (a refcount bump) under the shard lock, with no pin to release.
void CopyPageHandle(void* value, void* out) {
  *static_cast<PageHandle*>(out) = *static_cast<PageHandle*>(value);
}

}  // namespace

PageCache::PageCache(size_t capacity_bytes, int shard_bits, Statistics* stats)
    : cache_(NewShardedLRUCache(capacity_bytes, shard_bits)), stats_(stats) {}

bool PageCache::Lookup(uint64_t file_number, uint32_t page_index,
                       PageHandle* page, uint32_t generation) {
  char key[kKeySize];
  EncodePageKey(file_number, generation, page_index, key);
  if (!cache_->LookupCopy(Slice(key, kKeySize), &CopyPageHandle, page)) {
    if (stats_ != nullptr) {
      stats_->page_cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  if (stats_ != nullptr) {
    stats_->page_cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void PageCache::Insert(uint64_t file_number, uint32_t page_index,
                       const PageHandle& page, uint32_t generation) {
  char key[kKeySize];
  EncodePageKey(file_number, generation, page_index, key);
  const size_t charge = page->ApproximateMemoryUsage();
  cache_->Release(cache_->Insert(Slice(key, kKeySize), new PageHandle(page),
                                 charge, &DeletePageValue));
  PublishGauges();
}

void PageCache::EvictPage(uint64_t file_number, uint32_t page_index,
                          uint32_t generation) {
  char key[kKeySize];
  EncodePageKey(file_number, generation, page_index, key);
  cache_->Erase(Slice(key, kKeySize));
  PublishGauges();
}

void PageCache::EvictFile(uint64_t file_number) {
  char prefix[8];
  EncodeFixed64(prefix, file_number);
  Slice target(prefix, sizeof(prefix));
  cache_->EraseIf(
      [](const Slice& key, void* arg) {
        return key.starts_with(*static_cast<Slice*>(arg));
      },
      &target);
  PublishGauges();
}

void PageCache::PublishGauges() {
  if (stats_ == nullptr) {
    return;
  }
  // Eviction counts are monotonic; racing publishers must not let a stale
  // snapshot move the counter backwards (the charge gauge may go down by
  // definition, so a plain store is fine there).
  const uint64_t evictions = cache_->NumEvictions();
  uint64_t current = stats_->page_cache_evictions.load(
      std::memory_order_relaxed);
  while (current < evictions &&
         !stats_->page_cache_evictions.compare_exchange_weak(
             current, evictions, std::memory_order_relaxed)) {
  }
  stats_->page_cache_charge_bytes.store(cache_->TotalCharge(),
                                        std::memory_order_relaxed);
}

}  // namespace lethe
