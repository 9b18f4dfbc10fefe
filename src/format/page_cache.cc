#include "src/format/page_cache.h"

#include "src/util/coding.h"

namespace lethe {

namespace {

// fixed64 file_number | fixed32 generation | type byte | fixed32 id.
// The file-number prefix is what EvictFile matches on. Data pages use
// id = page_index under the meta's generation; index/filter blocks are
// never rewritten in place, so they always use generation 0 (id = 0 for
// the index, id = tile_index for filters).
constexpr size_t kKeySize = 17;

enum BlockType : char {
  kDataPage = 0,
  kIndexBlock = 1,
  kFilterBlock = 2,
  kFragmentedRtBlock = 3,
};

void EncodeBlockKey(uint64_t file_number, uint32_t generation, BlockType type,
                    uint32_t id, char* buf) {
  EncodeFixed64(buf, file_number);
  EncodeFixed32(buf + 8, generation);
  buf[12] = type;
  EncodeFixed32(buf + 13, id);
}

/// Cached value for the metadata block types: the shared handle plus the
/// bookkeeping the deleter needs to roll the per-type charge gauge back.
template <typename Handle>
struct BlockValue {
  Handle handle;
  size_t charge = 0;
  std::atomic<uint64_t>* charge_gauge = nullptr;
};

template <typename Handle>
void DeleteBlockValue(const Slice&, void* value) {
  auto* block = static_cast<BlockValue<Handle>*>(value);
  if (block->charge_gauge != nullptr) {
    block->charge_gauge->fetch_sub(block->charge, std::memory_order_relaxed);
  }
  delete block;
}

void DeletePageValue(const Slice&, void* value) {
  delete static_cast<PageHandle*>(value);
}

// Copy-out callbacks for Cache::LookupCopy: a hit copies the shared handle
// (a refcount bump) under the shard lock, with no pin to release.
void CopyPageHandle(void* value, void* out) {
  *static_cast<PageHandle*>(out) = *static_cast<PageHandle*>(value);
}

template <typename Handle>
void CopyBlockHandle(void* value, void* out) {
  *static_cast<Handle*>(out) = static_cast<BlockValue<Handle>*>(value)->handle;
}

/// The shared lookup/insert machinery of the two metadata block types;
/// they differ only in key tag, per-type counters, and handle type.
template <typename H>
bool LookupBlock(Cache* cache, uint64_t file_number, BlockType type,
                 uint32_t id, std::atomic<uint64_t>* hits,
                 std::atomic<uint64_t>* misses, H* out) {
  char key[kKeySize];
  EncodeBlockKey(file_number, 0, type, id, key);
  if (!cache->LookupCopy(Slice(key, kKeySize), &CopyBlockHandle<H>, out)) {
    if (misses != nullptr) {
      misses->fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  if (hits != nullptr) {
    hits->fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

template <typename H>
Cache::Handle* InsertBlock(Cache* cache, uint64_t file_number, BlockType type,
                           uint32_t id, const H& block,
                           std::atomic<uint64_t>* charge_gauge) {
  char key[kKeySize];
  EncodeBlockKey(file_number, 0, type, id, key);
  auto* value = new BlockValue<H>();
  value->handle = block;
  value->charge = block->ApproximateMemoryUsage();
  value->charge_gauge = charge_gauge;
  if (charge_gauge != nullptr) {
    charge_gauge->fetch_add(value->charge, std::memory_order_relaxed);
  }
  return cache->Insert(Slice(key, kKeySize), value, value->charge,
                       &DeleteBlockValue<H>, Cache::Priority::kHigh);
}

}  // namespace

PageCache::PageCache(size_t capacity_bytes, int shard_bits, Statistics* stats)
    : cache_(NewShardedLRUCache(capacity_bytes, shard_bits)), stats_(stats) {}

bool PageCache::Lookup(uint64_t file_number, uint32_t page_index,
                       PageHandle* page, uint32_t generation) {
  char key[kKeySize];
  EncodeBlockKey(file_number, generation, kDataPage, page_index, key);
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
  EncodeBlockKey(file_number, generation, kDataPage, page_index, key);
  const size_t charge = page->ApproximateMemoryUsage();
  FinishInsert(cache_->Insert(Slice(key, kKeySize), new PageHandle(page),
                              charge, &DeletePageValue,
                              Cache::Priority::kLow));
}

bool PageCache::LookupIndex(uint64_t file_number, TableIndexHandle* index) {
  return LookupBlock(cache_.get(), file_number, kIndexBlock, 0,
                     stats_ ? &stats_->index_block_cache_hits : nullptr,
                     stats_ ? &stats_->index_block_cache_misses : nullptr,
                     index);
}

void PageCache::InsertIndex(uint64_t file_number,
                            const TableIndexHandle& index) {
  FinishInsert(InsertBlock(
      cache_.get(), file_number, kIndexBlock, 0, index,
      stats_ ? &stats_->index_block_charge_bytes : nullptr));
}

bool PageCache::LookupFragmentedRt(uint64_t file_number,
                                   FragmentedRtHandle* rt) {
  return LookupBlock(cache_.get(), file_number, kFragmentedRtBlock, 0,
                     stats_ ? &stats_->rt_block_cache_hits : nullptr,
                     stats_ ? &stats_->rt_block_cache_misses : nullptr, rt);
}

void PageCache::InsertFragmentedRt(uint64_t file_number,
                                   const FragmentedRtHandle& rt) {
  FinishInsert(InsertBlock(
      cache_.get(), file_number, kFragmentedRtBlock, 0, rt,
      stats_ ? &stats_->rt_block_charge_bytes : nullptr));
}

bool PageCache::LookupFilter(uint64_t file_number, uint32_t tile_index,
                             FilterBlockHandle* filter) {
  return LookupBlock(cache_.get(), file_number, kFilterBlock, tile_index,
                     stats_ ? &stats_->filter_block_cache_hits : nullptr,
                     stats_ ? &stats_->filter_block_cache_misses : nullptr,
                     filter);
}

void PageCache::InsertFilter(uint64_t file_number, uint32_t tile_index,
                             const FilterBlockHandle& filter) {
  FinishInsert(InsertBlock(
      cache_.get(), file_number, kFilterBlock, tile_index, filter,
      stats_ ? &stats_->filter_block_charge_bytes : nullptr));
}

void PageCache::EvictPage(uint64_t file_number, uint32_t page_index,
                          uint32_t generation) {
  char key[kKeySize];
  EncodeBlockKey(file_number, generation, kDataPage, page_index, key);
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

void PageCache::FinishInsert(Cache::Handle* handle) {
  cache_->Release(handle);
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
