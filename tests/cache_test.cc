// Unit tests for the sharded LRU cache and the decoded-page cache layered on
// it: hit/miss behaviour, LRU eviction order, charge accounting, pinning,
// concurrent sharded access, and (file, page) invalidation.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/statistics.h"
#include "src/format/page_cache.h"
#include "src/util/cache.h"
#include "src/util/random.h"

namespace lethe {
namespace {

std::atomic<int> g_deletions{0};

void DeleteIntValue(const Slice&, void* value) {
  g_deletions.fetch_add(1, std::memory_order_relaxed);
  delete static_cast<int*>(value);
}

class LRUCacheTest : public ::testing::Test {
 protected:
  static constexpr size_t kCapacity = 4;

  // One shard so eviction order is fully deterministic.
  LRUCacheTest() : cache_(NewShardedLRUCache(kCapacity, /*shard_bits=*/0)) {
    g_deletions.store(0);
  }

  void Insert(const std::string& key, int value, size_t charge = 1) {
    cache_->Release(
        cache_->Insert(key, new int(value), charge, &DeleteIntValue));
  }

  /// -1 on miss.
  int Lookup(const std::string& key) {
    Cache::Handle* handle = cache_->Lookup(key);
    if (handle == nullptr) {
      return -1;
    }
    int value = *static_cast<int*>(cache_->Value(handle));
    cache_->Release(handle);
    return value;
  }

  std::unique_ptr<Cache> cache_;
};

void CopyIntValue(void* value, void* out) {
  *static_cast<int*>(out) = *static_cast<int*>(value);
}

/// Copy-out lookup; -1 on miss.
int LookupCopy(Cache* cache, const std::string& key) {
  int value = -1;
  const bool hit = cache->LookupCopy(key, &CopyIntValue, &value);
  EXPECT_EQ(hit, value != -1);
  return value;
}

TEST_F(LRUCacheTest, HitAndMiss) {
  EXPECT_EQ(Lookup("a"), -1);
  Insert("a", 1);
  EXPECT_EQ(Lookup("a"), 1);
  EXPECT_EQ(Lookup("b"), -1);
}

TEST_F(LRUCacheTest, ReplaceUpdatesValueAndFreesOld) {
  Insert("a", 1);
  Insert("a", 2);
  EXPECT_EQ(Lookup("a"), 2);
  EXPECT_EQ(g_deletions.load(), 1);  // the displaced value
}

TEST_F(LRUCacheTest, EvictionFollowsLRUOrder) {
  Insert("a", 1);
  Insert("b", 2);
  Insert("c", 3);
  Insert("d", 4);
  EXPECT_EQ(Lookup("a"), 1);  // refresh "a": "b" is now the oldest
  Insert("e", 5);             // over capacity: evicts "b"
  EXPECT_EQ(Lookup("b"), -1);
  EXPECT_EQ(Lookup("a"), 1);
  EXPECT_EQ(Lookup("c"), 3);
  EXPECT_EQ(Lookup("d"), 4);
  EXPECT_EQ(Lookup("e"), 5);
  EXPECT_EQ(cache_->NumEvictions(), 1u);
}

TEST_F(LRUCacheTest, CopyOutHitRefreshesRecency) {
  Insert("a", 1);
  Insert("b", 2);
  Insert("c", 3);
  Insert("d", 4);
  EXPECT_EQ(LookupCopy(cache_.get(), "a"), 1);  // "b" is now the oldest
  Insert("e", 5);
  EXPECT_EQ(LookupCopy(cache_.get(), "b"), -1);
  EXPECT_EQ(LookupCopy(cache_.get(), "a"), 1);
  EXPECT_EQ(cache_->NumEvictions(), 1u);
}

TEST_F(LRUCacheTest, CopyOutLeavesPinnedEntriesPinned) {
  Cache::Handle* pinned =
      cache_->Insert("pin", new int(42), 1, &DeleteIntValue);
  EXPECT_EQ(LookupCopy(cache_.get(), "pin"), 42);
  for (int i = 0; i < 10; i++) {
    Insert("k" + std::to_string(i), i);
  }
  EXPECT_EQ(LookupCopy(cache_.get(), "pin"), 42);
  cache_->Release(pinned);
}

// Two one-shard caches see the same random history of inserts, erases and
// hits; one takes its hits as Lookup + Release, the other as LookupCopy.
// Every step must evict the same entries, so both always hold the same
// keys.
TEST(LRUCacheCopyOutTest, MatchesLookupReleaseOrderExactly) {
  auto pinning = NewShardedLRUCache(24, /*shard_bits=*/0);
  auto copying = NewShardedLRUCache(24, /*shard_bits=*/0);
  Random rnd(31);
  for (int step = 0; step < 5000; step++) {
    const int k = static_cast<int>(rnd.Uniform(40));
    const std::string key = "key" + std::to_string(k);
    switch (rnd.Uniform(5)) {
      case 0:
      case 1: {
        const size_t charge = 1 + rnd.Uniform(3);
        for (Cache* cache : {pinning.get(), copying.get()}) {
          cache->Release(
              cache->Insert(key, new int(k), charge, &DeleteIntValue));
        }
        break;
      }
      case 2:
        pinning->Erase(key);
        copying->Erase(key);
        break;
      default: {
        int pinned_value = -1;
        if (Cache::Handle* handle = pinning->Lookup(key)) {
          pinned_value = *static_cast<int*>(pinning->Value(handle));
          pinning->Release(handle);
        }
        ASSERT_EQ(LookupCopy(copying.get(), key), pinned_value)
            << "step " << step;
        break;
      }
    }
    ASSERT_EQ(pinning->NumEvictions(), copying->NumEvictions())
        << "step " << step;
    ASSERT_EQ(pinning->TotalCharge(), copying->TotalCharge())
        << "step " << step;
  }
}

TEST_F(LRUCacheTest, ChargeAccounting) {
  Insert("a", 1, 2);
  Insert("b", 2, 1);
  EXPECT_EQ(cache_->TotalCharge(), 3u);
  // A 3-charge insert pushes usage to 6; evicting the oldest ("a", charge 2)
  // already brings it back within budget, so "b" survives.
  Insert("c", 3, 3);
  EXPECT_EQ(cache_->TotalCharge(), 4u);
  EXPECT_EQ(Lookup("a"), -1);
  EXPECT_EQ(Lookup("b"), 2);
  EXPECT_EQ(Lookup("c"), 3);
}

TEST_F(LRUCacheTest, OversizedEntryIsDroppedByNextInsert) {
  Insert("big", 9, kCapacity + 1);
  // Usage exceeds capacity, but eviction only strikes unpinned entries at
  // insert time — the entry stays resident until pressure arrives.
  EXPECT_EQ(Lookup("big"), 9);
  Insert("small", 1);
  EXPECT_EQ(Lookup("big"), -1);
  EXPECT_EQ(Lookup("small"), 1);
}

TEST_F(LRUCacheTest, PinnedEntriesAreNotEvicted) {
  Cache::Handle* pinned =
      cache_->Insert("pin", new int(42), 1, &DeleteIntValue);
  for (int i = 0; i < 10; i++) {
    Insert("filler" + std::to_string(i), i);
  }
  // Pinned entry survived the churn and is still resident.
  EXPECT_EQ(*static_cast<int*>(cache_->Value(pinned)), 42);
  EXPECT_EQ(Lookup("pin"), 42);
  cache_->Release(pinned);
  // Unpinned now; enough pressure evicts it.
  for (int i = 0; i < 10; i++) {
    Insert("more" + std::to_string(i), i);
  }
  EXPECT_EQ(Lookup("pin"), -1);
}

TEST_F(LRUCacheTest, ErasedEntryStaysAliveWhilePinned) {
  Cache::Handle* pinned =
      cache_->Insert("doomed", new int(7), 1, &DeleteIntValue);
  cache_->Erase("doomed");
  EXPECT_EQ(Lookup("doomed"), -1);  // no longer findable
  EXPECT_EQ(g_deletions.load(), 0);  // but not destroyed yet
  EXPECT_EQ(*static_cast<int*>(cache_->Value(pinned)), 7);
  cache_->Release(pinned);
  EXPECT_EQ(g_deletions.load(), 1);
}

TEST_F(LRUCacheTest, EraseIfDropsMatchingKeys) {
  Insert("file1/a", 1);
  Insert("file1/b", 2);
  Insert("file2/a", 3);
  cache_->EraseIf(
      [](const Slice& key, void*) { return key.starts_with("file1"); },
      nullptr);
  EXPECT_EQ(Lookup("file1/a"), -1);
  EXPECT_EQ(Lookup("file1/b"), -1);
  EXPECT_EQ(Lookup("file2/a"), 3);
  EXPECT_EQ(cache_->TotalCharge(), 1u);
  // Predicate drops are invalidations, not capacity evictions.
  EXPECT_EQ(cache_->NumEvictions(), 0u);
}

TEST_F(LRUCacheTest, ZeroCapacityIsPassThrough) {
  auto cache = NewShardedLRUCache(0, 0);
  Cache::Handle* handle =
      cache->Insert("a", new int(1), 1, &DeleteIntValue);
  EXPECT_EQ(*static_cast<int*>(cache->Value(handle)), 1);
  EXPECT_EQ(cache->Lookup("a"), nullptr);  // never resident
  cache->Release(handle);
  EXPECT_EQ(cache->TotalCharge(), 0u);
}

TEST_F(LRUCacheTest, ReservationShrinksBlockBudget) {
  Insert("a", 1, 2);
  Insert("b", 2, 2);
  EXPECT_EQ(cache_->TotalCharge(), 4u);

  // Reserving 3 of the 4 bytes evicts down to a 1-byte block budget.
  cache_->AdjustReservation(3);
  EXPECT_EQ(cache_->ReservedBytes(), 3u);
  EXPECT_LE(cache_->TotalCharge() + 3, kCapacity);

  // Inserts are still admitted, but each one evicts down to the shrunken
  // budget: only the newest 1-byte entry stays.
  Insert("c", 3, 1);
  Insert("d", 4, 1);
  EXPECT_EQ(Lookup("c"), -1);
  EXPECT_EQ(Lookup("d"), 4);

  // A returned reservation restores the whole budget.
  cache_->AdjustReservation(-3);
  EXPECT_EQ(cache_->ReservedBytes(), 0u);
  Insert("e", 5, 2);
  Insert("f", 6, 1);
  EXPECT_EQ(Lookup("d"), 4);
  EXPECT_EQ(Lookup("e"), 5);
  EXPECT_EQ(Lookup("f"), 6);
  EXPECT_EQ(cache_->TotalCharge(), 4u);
}

TEST_F(LRUCacheTest, ReservationBeyondCapacityZeroesTheBudget) {
  Insert("a", 1, 1);
  // Forced reservations may exceed capacity (a memtable the engine cannot
  // drop): every block is evicted, and an insert stays only until the next
  // one evicts it.
  cache_->AdjustReservation(kCapacity * 2);
  EXPECT_EQ(cache_->TotalCharge(), 0u);
  EXPECT_EQ(Lookup("a"), -1);
  Insert("b", 2, 1);
  Insert("c", 3, 1);
  EXPECT_EQ(Lookup("b"), -1);
  EXPECT_EQ(cache_->TotalCharge(), 1u);

  cache_->AdjustReservation(-static_cast<int64_t>(kCapacity * 2));
  Insert("d", 4, 1);
  EXPECT_EQ(Lookup("c"), 3);
  EXPECT_EQ(Lookup("d"), 4);
}

TEST(CacheReservationTest, SetAndDestructionReturnTheStake) {
  auto cache = NewShardedLRUCache(1024, /*shard_bits=*/2);
  {
    CacheReservation reservation(cache.get());
    reservation.Set(600);
    EXPECT_EQ(cache->ReservedBytes(), 600u);
    reservation.Set(200);  // shrink re-points, not accumulates
    EXPECT_EQ(cache->ReservedBytes(), 200u);
  }
  EXPECT_EQ(cache->ReservedBytes(), 0u);  // destructor released it

  CacheReservation inactive;  // no cache: every call is a no-op
  inactive.Set(1 << 20);
  EXPECT_EQ(inactive.bytes(), 0u);
}

TEST(ShardedLRUCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  auto cache = NewShardedLRUCache(512, /*shard_bits=*/4);
  g_deletions.store(0);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, &bad_reads, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        const int k = (t * 7 + i * 13) % 257;
        const std::string key = "key" + std::to_string(k);
        switch (i % 4) {
          case 0: {
            Cache::Handle* handle = cache->Lookup(key);
            if (handle != nullptr) {
              if (*static_cast<int*>(cache->Value(handle)) != k) {
                bad_reads.fetch_add(1);
              }
              cache->Release(handle);
            }
            break;
          }
          case 1: {
            int value = -1;
            if (cache->LookupCopy(key, &CopyIntValue, &value) && value != k) {
              bad_reads.fetch_add(1);
            }
            break;
          }
          case 2:
            cache->Release(
                cache->Insert(key, new int(k), 1 + k % 3, &DeleteIntValue));
            break;
          case 3:
            cache->Erase(key);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  // An insert racing a transient pin may leave a shard slightly over budget
  // until the next insert; allow that slack.
  EXPECT_LE(cache->TotalCharge(), 512u + kThreads * 3u);
  cache.reset();  // destructor destroys all residents: every insert freed
}

// ---------------------------------------------------------------------------
// PageCache.

/// A decoded page of `raw_size` bytes holding no entries.
PageHandle MakePage(size_t raw_size) {
  auto page = std::make_shared<PageContents>();
  const std::string raw = PageBuilder(raw_size, 1).Finish();
  EXPECT_TRUE(DecodePage(Slice(raw), raw_size, page.get()).ok());
  return page;
}

TEST(PageCacheTest, HitAndMissCounters) {
  Statistics stats;
  PageCache cache(1 << 20, /*shard_bits=*/2, &stats);
  PageHandle page;
  EXPECT_FALSE(cache.Lookup(1, 0, &page));
  EXPECT_EQ(stats.page_cache_misses.load(), 1u);

  cache.Insert(1, 0, MakePage(4096));
  ASSERT_TRUE(cache.Lookup(1, 0, &page));
  EXPECT_EQ(page->raw_size(), 4096u);
  EXPECT_EQ(stats.page_cache_hits.load(), 1u);
  EXPECT_GT(stats.page_cache_charge_bytes.load(), 0u);
}

// A decoded page is charged its own bytes, a 4-byte offset per entry and
// the PageContents header — nothing per entry beyond the offset. A decoded
// entry array creeping back into PageContents fails the size bound or the
// charge.
TEST(PageCacheTest, PageIsChargedItsBytesPlusOffsetTable) {
  PageBuilder builder(4096, UINT32_MAX);
  const std::string value(100, 'v');
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    keys.push_back("key" + std::to_string(100000 + i));
  }
  size_t n = 0;
  for (; n < keys.size(); n++) {
    ParsedEntry entry;
    entry.user_key = keys[n];
    entry.seq = n + 1;
    entry.value = value;
    if (!builder.Add(entry)) {
      break;
    }
  }
  ASSERT_GT(n, 20u);
  const std::string raw = builder.Finish();
  auto page = std::make_shared<PageContents>();
  ASSERT_TRUE(DecodePage(Slice(raw), 4096, page.get()).ok());
  ASSERT_EQ(page->entries.size(), n);

  EXPECT_LE(sizeof(PageContents), 48u);
  Statistics stats;
  PageCache cache(1 << 20, /*shard_bits=*/0, &stats);
  cache.Insert(1, 0, page);
  const size_t expected = 4096 + 4 * n + sizeof(PageContents);
  EXPECT_EQ(page->ApproximateMemoryUsage(), expected);
  EXPECT_EQ(cache.TotalCharge(), expected);
  EXPECT_EQ(stats.page_cache_charge_bytes.load(), expected);
}

TEST(PageCacheTest, DistinctPagesAreDistinctEntries) {
  Statistics stats;
  PageCache cache(1 << 20, 2, &stats);
  cache.Insert(1, 0, MakePage(100));
  cache.Insert(1, 1, MakePage(200));
  cache.Insert(2, 0, MakePage(300));
  PageHandle page;
  ASSERT_TRUE(cache.Lookup(1, 1, &page));
  EXPECT_EQ(page->raw_size(), 200u);
  ASSERT_TRUE(cache.Lookup(2, 0, &page));
  EXPECT_EQ(page->raw_size(), 300u);
}

TEST(PageCacheTest, EvictPageInvalidatesOnlyThatPage) {
  Statistics stats;
  PageCache cache(1 << 20, 2, &stats);
  cache.Insert(1, 0, MakePage(100));
  cache.Insert(1, 1, MakePage(200));
  cache.EvictPage(1, 0);
  PageHandle page;
  EXPECT_FALSE(cache.Lookup(1, 0, &page));
  EXPECT_TRUE(cache.Lookup(1, 1, &page));
}

TEST(PageCacheTest, EvictFileDropsAllItsPages) {
  Statistics stats;
  PageCache cache(1 << 20, 2, &stats);
  for (uint32_t p = 0; p < 8; p++) {
    cache.Insert(7, p, MakePage(512));
    cache.Insert(9, p, MakePage(512));
  }
  const size_t before = cache.TotalCharge();
  cache.EvictFile(7);
  EXPECT_LT(cache.TotalCharge(), before);
  PageHandle page;
  for (uint32_t p = 0; p < 8; p++) {
    EXPECT_FALSE(cache.Lookup(7, p, &page)) << "page " << p;
    EXPECT_TRUE(cache.Lookup(9, p, &page)) << "page " << p;
  }
  EXPECT_EQ(stats.page_cache_charge_bytes.load(), cache.TotalCharge());
}

TEST(PageCacheTest, CapacityPressureEvictsAndCounts) {
  Statistics stats;
  // Tiny budget: a few 4 KB pages at most.
  PageCache cache(10000, /*shard_bits=*/0, &stats);
  for (uint32_t p = 0; p < 16; p++) {
    cache.Insert(1, p, MakePage(4096));
  }
  EXPECT_LE(cache.TotalCharge(), 10000u);
  EXPECT_GT(stats.page_cache_evictions.load(), 0u);
  // The most recently inserted page is still resident.
  PageHandle page;
  EXPECT_TRUE(cache.Lookup(1, 15, &page));
}

TEST(PageCacheTest, EvictFileDropsEveryGenerationOfTheFile) {
  // An in-place page rewrite caches the page under a bumped generation;
  // deleting the file must drop every generation's copies.
  Statistics stats;
  PageCache cache(1 << 20, 2, &stats);
  cache.Insert(3, 0, MakePage(100), /*generation=*/0);
  cache.Insert(3, 0, MakePage(100), /*generation=*/1);
  cache.Insert(3, 1, MakePage(100), /*generation=*/2);
  cache.Insert(4, 0, MakePage(60));  // other file: untouched

  cache.EvictFile(3);
  PageHandle page;
  EXPECT_FALSE(cache.Lookup(3, 0, &page, 0));
  EXPECT_FALSE(cache.Lookup(3, 0, &page, 1));
  EXPECT_FALSE(cache.Lookup(3, 1, &page, 2));
  ASSERT_TRUE(cache.Lookup(4, 0, &page));
  EXPECT_EQ(stats.page_cache_charge_bytes.load(),
            page->ApproximateMemoryUsage());
}

}  // namespace
}  // namespace lethe
