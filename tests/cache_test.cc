// Unit tests for the decoded-page cache: hit/miss behaviour, LRU eviction
// order against a model, charge accounting, reservations, concurrent sharded
// access, and (file, page) invalidation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/statistics.h"
#include "src/format/page_cache.h"
#include "src/util/random.h"

namespace lethe {
namespace {

/// A decoded page of `raw_size` bytes holding no entries.
PageHandle MakePage(size_t raw_size) {
  auto page = std::make_shared<PageContents>();
  const std::string raw = PageBuilder(raw_size, 1).Finish();
  EXPECT_TRUE(DecodePage(Slice(raw), raw_size, page.get()).ok());
  return page;
}

/// Charges in these tests count in units of 100 bytes.
constexpr size_t kUnit = 100;

/// An empty page charged exactly `units` units.
PageHandle PageOfUnits(size_t units) {
  PageHandle page = MakePage(units * kUnit - sizeof(PageContents));
  EXPECT_EQ(page->ApproximateMemoryUsage(), units * kUnit);
  return page;
}

class PageCacheLRUTest : public ::testing::Test {
 protected:
  static constexpr size_t kCapacity = 4;  // units

  // One shard so eviction order is fully deterministic.
  PageCacheLRUTest() : cache_(kCapacity * kUnit, /*shard_bits=*/0, &stats_) {}

  /// Caches a page of `units` units as file `file`, page 0; returns it.
  PageHandle Insert(uint64_t file, size_t units = 1) {
    PageHandle page = PageOfUnits(units);
    cache_.Insert(file, 0, page);
    return page;
  }

  /// The cached page of file `file`, or nullptr on a miss.
  PageHandle Lookup(uint64_t file) {
    PageHandle page;
    return cache_.Lookup(file, 0, &page) ? page : nullptr;
  }

  Statistics stats_;
  PageCache cache_;
};

TEST_F(PageCacheLRUTest, HitAndMiss) {
  EXPECT_EQ(Lookup(1), nullptr);
  PageHandle a = Insert(1);
  EXPECT_EQ(Lookup(1), a);
  EXPECT_EQ(Lookup(2), nullptr);
  EXPECT_EQ(stats_.page_cache_hits.load(), 1u);
  EXPECT_EQ(stats_.page_cache_misses.load(), 2u);
}

TEST_F(PageCacheLRUTest, ReplaceUpdatesPageAndFreesOld) {
  std::weak_ptr<const PageContents> old = Insert(1);
  EXPECT_FALSE(old.expired());  // the cache holds it
  PageHandle replacement = Insert(1, 2);
  EXPECT_EQ(Lookup(1), replacement);
  EXPECT_TRUE(old.expired());  // the displaced page is gone
  EXPECT_EQ(cache_.TotalCharge(), 2 * kUnit);
  // A replacement is not a capacity eviction.
  EXPECT_EQ(stats_.page_cache_evictions.load(), 0u);
}

TEST_F(PageCacheLRUTest, EvictionFollowsLRUOrder) {
  PageHandle a = Insert(1);
  Insert(2);
  PageHandle c = Insert(3);
  PageHandle d = Insert(4);
  EXPECT_EQ(Lookup(1), a);    // refresh 1: 2 is now the oldest
  PageHandle e = Insert(5);   // over capacity: evicts 2
  EXPECT_EQ(Lookup(2), nullptr);
  EXPECT_EQ(Lookup(1), a);
  EXPECT_EQ(Lookup(3), c);
  EXPECT_EQ(Lookup(4), d);
  EXPECT_EQ(Lookup(5), e);
  EXPECT_EQ(stats_.page_cache_evictions.load(), 1u);
}

TEST_F(PageCacheLRUTest, ChargeAccounting) {
  Insert(1, 2);
  PageHandle b = Insert(2, 1);
  EXPECT_EQ(cache_.TotalCharge(), 3 * kUnit);
  // A 3-unit insert pushes usage to 6; evicting the oldest (1, two units)
  // already brings it back within budget, so 2 survives.
  PageHandle c = Insert(3, 3);
  EXPECT_EQ(cache_.TotalCharge(), 4 * kUnit);
  EXPECT_EQ(stats_.page_cache_charge_bytes.load(), 4 * kUnit);
  EXPECT_EQ(Lookup(1), nullptr);
  EXPECT_EQ(Lookup(2), b);
  EXPECT_EQ(Lookup(3), c);
}

TEST_F(PageCacheLRUTest, OversizedEntryIsDroppedByNextInsert) {
  PageHandle big = Insert(1, kCapacity + 1);
  // Usage exceeds capacity, but an insert never evicts its own page: the
  // page stays resident until the next insert.
  EXPECT_EQ(Lookup(1), big);
  PageHandle small = Insert(2);
  EXPECT_EQ(Lookup(1), nullptr);
  EXPECT_EQ(Lookup(2), small);
}

// A page a reader holds outlives its eviction: the cache drops its own
// reference, and the page goes when the last reader lets go.
TEST_F(PageCacheLRUTest, HeldPageOutlivesItsEviction) {
  std::weak_ptr<const PageContents> watch;
  PageHandle held;
  {
    Insert(1, 2);
    held = Lookup(1);
    watch = held;
  }
  cache_.EvictPage(1, 0);
  EXPECT_EQ(Lookup(1), nullptr);  // no longer findable
  EXPECT_EQ(cache_.TotalCharge(), 0u);
  ASSERT_FALSE(watch.expired());  // but not destroyed
  EXPECT_EQ(held->ApproximateMemoryUsage(), 2 * kUnit);

  // Eviction by capacity pressure behaves the same.
  std::weak_ptr<const PageContents> pressured = Insert(2);
  PageHandle held2 = Lookup(2);
  for (uint64_t f = 10; f < 20; f++) {
    Insert(f);
  }
  EXPECT_EQ(Lookup(2), nullptr);
  EXPECT_FALSE(pressured.expired());

  held.reset();
  held2.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(pressured.expired());
}

TEST_F(PageCacheLRUTest, ReservationShrinksPageBudget) {
  Insert(1, 2);
  Insert(2, 2);
  EXPECT_EQ(cache_.TotalCharge(), 4 * kUnit);

  // Reserving 3 of the 4 units evicts down to a 1-unit page budget, and
  // the gauges say so at once.
  cache_.AdjustReservation(3 * kUnit);
  EXPECT_EQ(cache_.ReservedBytes(), 3 * kUnit);
  EXPECT_LE(cache_.TotalCharge() + 3 * kUnit, kCapacity * kUnit);
  EXPECT_EQ(stats_.page_cache_charge_bytes.load(), cache_.TotalCharge());
  EXPECT_EQ(stats_.page_cache_evictions.load(), 2u);

  // Inserts are still admitted, but each one evicts down to the shrunken
  // budget: only the newest 1-unit page stays.
  Insert(3, 1);
  PageHandle d = Insert(4, 1);
  EXPECT_EQ(Lookup(3), nullptr);
  EXPECT_EQ(Lookup(4), d);

  // A returned reservation restores the whole budget.
  cache_.AdjustReservation(-3 * static_cast<int64_t>(kUnit));
  EXPECT_EQ(cache_.ReservedBytes(), 0u);
  PageHandle e = Insert(5, 2);
  PageHandle f = Insert(6, 1);
  EXPECT_EQ(Lookup(4), d);
  EXPECT_EQ(Lookup(5), e);
  EXPECT_EQ(Lookup(6), f);
  EXPECT_EQ(cache_.TotalCharge(), 4 * kUnit);
}

TEST_F(PageCacheLRUTest, ReservationBeyondCapacityZeroesTheBudget) {
  Insert(1, 1);
  // Forced reservations may exceed capacity (a memtable the engine cannot
  // drop): every page is evicted, and an insert stays only until the next
  // one evicts it.
  cache_.AdjustReservation(kCapacity * kUnit * 2);
  EXPECT_EQ(cache_.TotalCharge(), 0u);
  EXPECT_EQ(stats_.page_cache_charge_bytes.load(), 0u);
  EXPECT_EQ(Lookup(1), nullptr);
  Insert(2, 1);
  PageHandle c = Insert(3, 1);
  EXPECT_EQ(Lookup(2), nullptr);
  EXPECT_EQ(cache_.TotalCharge(), kUnit);

  cache_.AdjustReservation(-static_cast<int64_t>(kCapacity * kUnit * 2));
  PageHandle d = Insert(4, 1);
  EXPECT_EQ(Lookup(3), c);
  EXPECT_EQ(Lookup(4), d);
}

TEST(CacheReservationTest, SetAndDestructionReturnTheStake) {
  Statistics stats;
  PageCache cache(1024, /*shard_bits=*/2, &stats);
  {
    CacheReservation reservation(&cache);
    reservation.Set(600);
    EXPECT_EQ(cache.ReservedBytes(), 600u);
    reservation.Set(200);  // shrink re-points, not accumulates
    EXPECT_EQ(cache.ReservedBytes(), 200u);
  }
  EXPECT_EQ(cache.ReservedBytes(), 0u);  // destructor released it

  CacheReservation inactive;  // no cache: every call is a no-op
  inactive.Set(1 << 20);
  EXPECT_EQ(inactive.bytes(), 0u);
}

// A random history of inserts, lookups, page and file evictions and
// reservation changes on a one-shard cache, checked after every step
// against a plain LRU model: the same pages resident, in the same order,
// and the same evictions counted.
TEST(PageCacheModelTest, MatchesListAndMapLRUStepByStep) {
  constexpr size_t kCapacityUnits = 24;
  Statistics stats;
  PageCache cache(kCapacityUnits * kUnit, /*shard_bits=*/0, &stats);

  using Key = std::tuple<uint64_t, uint32_t, uint32_t>;  // file, gen, page
  struct Resident {
    PageHandle page;
    std::list<Key>::iterator pos;
  };
  std::list<Key> order;  // front: the oldest page, the next victim
  std::map<Key, Resident> model;
  size_t usage = 0;
  size_t reserved = 0;
  uint64_t evictions = 0;

  auto remove = [&](std::map<Key, Resident>::iterator it) {
    usage -= it->second.page->ApproximateMemoryUsage();
    order.erase(it->second.pos);
    model.erase(it);
  };
  auto evict_while_over = [&] {
    const size_t capacity = kCapacityUnits * kUnit;
    const size_t budget = capacity - std::min(reserved, capacity);
    while (usage > budget && !order.empty()) {
      remove(model.find(order.front()));
      evictions++;
    }
  };

  std::vector<Key> universe;
  for (uint64_t file = 1; file <= 4; file++) {
    for (uint32_t gen = 0; gen < 2; gen++) {
      for (uint32_t page = 0; page < 5; page++) {
        universe.emplace_back(file, gen, page);
      }
    }
  }

  Random rnd(31);
  for (int step = 0; step < 5000; step++) {
    const Key key = universe[rnd.Uniform(universe.size())];
    const auto [file, gen, page_index] = key;
    switch (rnd.Uniform(8)) {
      case 0:
      case 1:
      case 2: {
        // Mostly small pages; now and then one larger than the budget.
        const size_t units =
            rnd.Uniform(50) == 0 ? kCapacityUnits + 1 : 1 + rnd.Uniform(3);
        PageHandle page = PageOfUnits(units);
        cache.Insert(file, page_index, page, gen);
        if (auto it = model.find(key); it != model.end()) {
          remove(it);
        }
        usage += page->ApproximateMemoryUsage();
        evict_while_over();
        model[key] = Resident{page, order.insert(order.end(), key)};
        break;
      }
      case 3:
      case 4: {
        PageHandle got;
        const bool hit = cache.Lookup(file, page_index, &got, gen);
        auto it = model.find(key);
        ASSERT_EQ(hit, it != model.end()) << "step " << step;
        if (hit) {
          ASSERT_EQ(got, it->second.page) << "step " << step;
          order.splice(order.end(), order, it->second.pos);
        }
        break;
      }
      case 5:
        cache.EvictPage(file, page_index, gen);
        if (auto it = model.find(key); it != model.end()) {
          remove(it);
        }
        break;
      case 6:
        cache.EvictFile(file);
        for (auto it = model.begin(); it != model.end();) {
          auto next = std::next(it);
          if (std::get<0>(it->first) == file) {
            remove(it);
          }
          it = next;
        }
        break;
      default: {
        const int64_t delta =
            static_cast<int64_t>(rnd.Uniform(12 * kUnit)) -
            static_cast<int64_t>(6 * kUnit);
        cache.AdjustReservation(delta);
        reserved = static_cast<size_t>(
            std::max<int64_t>(0, static_cast<int64_t>(reserved) + delta));
        evict_while_over();
        break;
      }
    }

    ASSERT_EQ(stats.page_cache_evictions.load(), evictions) << "step " << step;
    ASSERT_EQ(cache.TotalCharge(), usage) << "step " << step;
    ASSERT_EQ(stats.page_cache_charge_bytes.load(), usage) << "step " << step;
    ASSERT_EQ(cache.ReservedBytes(), reserved) << "step " << step;
    // The resident set: every other key misses (a miss moves nothing), and
    // the model's pages hit oldest first, which leaves their order as it
    // was.
    for (const Key& other : universe) {
      if (model.count(other) == 0) {
        PageHandle got;
        ASSERT_FALSE(cache.Lookup(std::get<0>(other), std::get<2>(other),
                                  &got, std::get<1>(other)))
            << "step " << step;
      }
    }
    for (const Key& resident : order) {
      PageHandle got;
      ASSERT_TRUE(cache.Lookup(std::get<0>(resident), std::get<2>(resident),
                               &got, std::get<1>(resident)))
          << "step " << step;
      ASSERT_EQ(got, model[resident].page) << "step " << step;
    }
  }
  EXPECT_GT(evictions, 100u);
}

// Threads race inserts, lookups, page and file evictions and reservation
// churn over a 16-shard cache. Every hit must return the page inserted
// under its key, and once the threads are done the gauges must match the
// cache exactly.
TEST(PageCacheConcurrencyTest, ConcurrentMixedWorkloadStaysConsistent) {
  constexpr size_t kCapacity = 16 * 1024;
  Statistics stats;
  PageCache cache(kCapacity, /*shard_bits=*/4, &stats);
  constexpr int kKeys = 257;
  // Charges stay below a shard's 1 KB share, so each shard ends within it.
  std::vector<PageHandle> pages;
  for (int k = 0; k < kKeys; k++) {
    pages.push_back(PageOfUnits(1 + k % 3));
  }
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      CacheReservation reservation(&cache);
      for (int i = 0; i < kOpsPerThread; i++) {
        const int k = (t * 7 + i * 13) % kKeys;
        const uint64_t file = 1 + k % 8;
        const uint32_t page_index = static_cast<uint32_t>(k);
        switch (i % 6) {
          case 0:
          case 1: {
            PageHandle got;
            if (cache.Lookup(file, page_index, &got) && got != pages[k]) {
              bad_reads.fetch_add(1);
            }
            break;
          }
          case 2:
            cache.Insert(file, page_index, pages[k]);
            break;
          case 3:
            cache.EvictPage(file, page_index);
            break;
          case 4:
            if (i % 60 == 4) {
              cache.EvictFile(file);
            } else {
              cache.Insert(file, page_index, pages[k]);
            }
            break;
          case 5:
            reservation.Set((i * 37 % 11) * 512);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(cache.ReservedBytes(), 0u);
  EXPECT_LE(cache.TotalCharge(), kCapacity);
  EXPECT_EQ(stats.page_cache_charge_bytes.load(), cache.TotalCharge());

  // Every page at once is more than the cache holds.
  const uint64_t evictions = stats.page_cache_evictions.load();
  for (int k = 0; k < kKeys; k++) {
    cache.Insert(1 + k % 8, static_cast<uint32_t>(k), pages[k]);
  }
  EXPECT_GT(stats.page_cache_evictions.load(), evictions);
  EXPECT_LE(cache.TotalCharge(), kCapacity);
  EXPECT_EQ(stats.page_cache_charge_bytes.load(), cache.TotalCharge());
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
  // File drops are invalidations, not capacity evictions.
  EXPECT_EQ(stats.page_cache_evictions.load(), 0u);
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
