// Randomized, model-checked concurrency stress harness for the worker-pool
// engine (ctest label: "stress"; CI runs it under ASan and TSan).
//
// Each seed derives a full engine configuration (pool size, compaction
// style, delete-tile granularity, FADE threshold, blind-delete filtering)
// and drives several writer threads against one DB. Every thread owns a
// disjoint slice of the key space *and* of the delete-key space, and
// checks it against its own test::KeyModel. Because a thread is the only
// writer and the only checker for its slice, every Get and every partition
// scan can be compared against the model *exactly*, even while the other
// threads churn flushes, compactions, and secondary deletes concurrently.
//
// After the threads join, the harness waits for background quiescence,
// verifies structural tree invariants (sorted-run ordering, leveling's
// one-run rule, no dangling file references), re-checks every key, then
// crashes the DB (destructor with work in flight was exercised separately;
// here: clean reopen over the surviving WAL/manifest) and re-checks again,
// then closes it, runs DB::Repair over the intact MANIFEST, reopens and
// re-checks once more.
//
// Every model failure message carries the seed and the exact command that
// reruns it. LETHE_STRESS_SEEDS (default 10) and LETHE_STRESS_OPS (default
// 400 ops per thread) scale the run; CI's stress job raises them, tier-1
// keeps the defaults so the suite stays fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/lethe.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/txn.h"
#include "src/memtable/memtable.h"
#include "src/workload/generator.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using test::KeyModel;
using test::ModelOp;
using workload::EncodeKey;

int NumSeeds() { return test::EnvInt("LETHE_STRESS_SEEDS", 10); }
int OpsPerThread() { return test::EnvInt("LETHE_STRESS_OPS", 400); }

// CI's range-delete-heavy lane (LETHE_STRESS_RT_HEAVY=1): widens the
// range-delete band from 5% to ~25% of ops so tombstones pile up densely —
// the fragmented cover index, chunked memtable publishes, and compaction's
// snapshot-stripe drop rule all churn on every seed.
bool RtHeavy() { return test::EnvInt("LETHE_STRESS_RT_HEAVY", 0) > 0; }

constexpr int kThreads = 3;
constexpr uint64_t kKeysPerThread = 256;
// Per-thread delete-key band: thread t assigns delete keys in
// [(t+1) << 40, ...), far above the clock-valued delete keys the engine
// stamps on tombstones, so one thread's secondary deletes can never touch
// another thread's entries (or anyone's tombstones).
constexpr uint64_t kDeleteKeyBand = 1ull << 40;

struct StressState {
  DB* db = nullptr;
  LogicalClock* clock = nullptr;
  std::atomic<bool> failed{false};
};

/// The engine every lane here starts from: tiny buffers and files for
/// constant flush and merge pressure on a background pool, with the
/// compaction style and then the pool size drawn from `config_rnd`.
Options LaneOptions(Env* env, Clock* clock, Random* config_rnd) {
  Options options;
  options.env = env;
  options.clock = clock;
  options.write_buffer_bytes = 8 << 10;
  options.target_file_bytes = 8 << 10;
  options.size_ratio = 3;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;
  options.compaction_style = config_rnd->Bernoulli(0.5)
                                 ? CompactionStyle::kLeveling
                                 : CompactionStyle::kTiering;
  options.inline_compactions = false;
  static constexpr int kPools[] = {1, 2, 4};
  options.background_threads = kPools[config_rnd->Uniform(3)];
  return options;
}

/// One model per thread slice, each naming its seed, thread and repro
/// command in its failure messages.
std::vector<KeyModel> SliceModels(int seed) {
  std::vector<KeyModel> models;
  for (int t = 0; t < kThreads; t++) {
    models.emplace_back(t * kKeysPerThread, (t + 1) * kKeysPerThread,
                        "seed=" + std::to_string(seed) + " thread=" +
                            std::to_string(t) + " (" +
                            test::ReproHint("LETHE_STRESS_SEEDS", seed) + ")");
  }
  return models;
}

/// The short ascending load every seed starts with: one writer Puts every
/// slice's keys in key order, through the slice models. Successive
/// memtables then hold disjoint key spans, so pools of 2 and 4 build their
/// flushes side by side (the random-key workers that follow interleave
/// their keys, and their memtables always overlap).
::testing::AssertionResult AscendingLoad(DB* db, LogicalClock* clock,
                                         int seed,
                                         std::vector<KeyModel>* models) {
  for (int t = 0; t < kThreads; t++) {
    const uint64_t dk_base = (static_cast<uint64_t>(t) + 1) * kDeleteKeyBand;
    for (uint64_t k = t * kKeysPerThread; k < (t + 1) * kKeysPerThread; k++) {
      clock->AdvanceMicros(1);
      const std::string value =
          "a" + std::to_string(seed) + "-" + std::to_string(k) +
          std::string(48, '.');
      Status s = (*models)[t].Write(db, ModelOp::Put(k, dk_base, value));
      if (!s.ok()) {
        return ::testing::AssertionFailure()
               << (*models)[t].context()
               << ": ascending load failed: " << s.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// FADE's promise checked at quiescence: the clock moves a full D_th on, so
/// every tombstone written is past its deadline; with no snapshot live, the
/// merges CompactUntilQuiescent runs must carry each one to the bottom and
/// drop it, leaving no file holding a tombstone older than D_th.
::testing::AssertionResult TombstonesPersistWithinDth(DB* db,
                                                      LogicalClock* clock,
                                                      uint64_t dth) {
  clock->AdvanceMicros(dth);
  Status s = db->CompactUntilQuiescent();
  if (!s.ok()) {
    return ::testing::AssertionFailure()
           << "CompactUntilQuiescent: " << s.ToString();
  }
  for (const TombstoneAgeSample& sample : db->GetTombstoneAges()) {
    if (sample.age_micros > dth) {
      return ::testing::AssertionFailure()
             << "a level-" << sample.level << " file holds a tombstone "
             << sample.age_micros << " us old, past D_th = " << dth;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Reports a worker-thread failure and tells the other threads to stop.
void Fail(StressState* state, const std::string& what) {
  ADD_FAILURE() << what;
  state->failed.store(true, std::memory_order_relaxed);
}

/// One worker: random ops against the DB, mirrored into `model`, with
/// every read cross-checked. Returns early once any thread failed.
void RunWorker(StressState* state, int seed, int thread_id, KeyModel* model) {
  DB* db = state->db;
  Random rnd(static_cast<uint64_t>(seed) * 1000003 + thread_id);
  const uint64_t key_lo = thread_id * kKeysPerThread;
  const uint64_t key_hi = key_lo + kKeysPerThread;
  const uint64_t dk_base =
      (static_cast<uint64_t>(thread_id) + 1) * kDeleteKeyBand;
  uint64_t local_ts = 0;
  const int ops = OpsPerThread();

  // Every write must be acknowledged; every read must match the model.
  auto write = [&](const ModelOp& op) {
    Status s = model->Write(db, op);
    if (!s.ok()) {
      Fail(state, model->context() + ": write failed: " + s.ToString());
    }
    return s.ok();
  };
  auto check = [&](const ::testing::AssertionResult& r) {
    if (!r) {
      Fail(state, r.message());
    }
    return static_cast<bool>(r);
  };

  // Op mix: the rt-heavy lane trades puts and point deletes for range
  // deletes (5% → 25% of ops); every band past the range-delete one keeps
  // its usual width.
  const double put_band = RtHeavy() ? 0.30 : 0.42;
  const double point_delete_band = RtHeavy() ? 0.37 : 0.57;

  for (int i = 0; i < ops && !state->failed.load(std::memory_order_relaxed);
       i++) {
    state->clock->AdvanceMicros(7);
    const double roll = rnd.NextDouble();
    const uint64_t k = key_lo + rnd.Uniform(kKeysPerThread);

    if (roll < put_band) {  // put (sometimes as a small atomic batch)
      if (rnd.Bernoulli(0.1)) {
        WriteBatch batch;
        const int batch_ops = 2 + static_cast<int>(rnd.Uniform(3));
        for (int b = 0; b < batch_ops; b++) {
          uint64_t bk = key_lo + rnd.Uniform(kKeysPerThread);
          if (rnd.Bernoulli(0.25)) {
            batch.Delete(EncodeKey(bk));
          } else {
            uint64_t dk = dk_base + (++local_ts);
            batch.Put(EncodeKey(bk), dk,
                      "b" + std::to_string(seed) + "-" + std::to_string(i) +
                          "-" + std::to_string(b));
          }
        }
        if (!write(ModelOp::Batch(std::move(batch)))) {
          return;
        }
      } else {
        uint64_t dk = dk_base + (++local_ts);
        std::string value = "v" + std::to_string(seed) + "-" +
                            std::to_string(thread_id) + "-" +
                            std::to_string(i);
        if (!write(ModelOp::Put(k, dk, value))) {
          return;
        }
      }
    } else if (roll < point_delete_band) {  // point delete (blind included)
      if (!write(ModelOp::Delete(k))) {
        return;
      }
    } else if (roll < 0.62) {  // sort-key range delete, clipped to the slice
      uint64_t end = std::min(k + 1 + rnd.Uniform(16), key_hi);
      if (end <= k) {
        continue;
      }
      if (!write(ModelOp::RangeDelete(k, end))) {
        return;
      }
    } else if (roll < 0.645 && local_ts > 0) {  // secondary delete (prefix)
      const uint64_t hi = dk_base + 1 + rnd.Uniform(local_ts);
      if (!write(ModelOp::SecondaryRangeDelete(dk_base, hi))) {
        return;
      }
    } else if (roll < 0.85) {  // point lookup vs the model
      if (!check(model->CheckGet(db, k))) {
        return;
      }
    } else if (roll < 0.87) {  // rare global barrier from a worker thread
      Status s = rnd.Bernoulli(0.5) ? db->Flush() : db->WaitForCompact();
      if (!s.ok()) {
        Fail(state, model->context() + ": barrier failed: " + s.ToString());
        return;
      }
    } else {  // partition scan vs the model
      if (!check(model->CheckScan(db, key_lo, key_hi))) {
        return;
      }
    }
  }
}

class StressTest : public ::testing::TestWithParam<int> {};

TEST_P(StressTest, ModelCheckedConcurrentWorkload) {
  const int seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Random config_rnd(static_cast<uint64_t>(seed));

  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  const uint32_t pages_per_tile = config_rnd.Bernoulli(0.5) ? 4 : 1;
  Options options = LaneOptions(&env, &clock, &config_rnd);
  options.table.pages_per_tile = pages_per_tile;
  options.max_imm_memtables = 2 + static_cast<int>(config_rnd.Uniform(2));
  options.filter_blind_deletes = config_rnd.Bernoulli(0.3);
  if (config_rnd.Bernoulli(0.4)) {
    options.delete_persistence_threshold_micros = 300000;
    options.file_picking = FilePickingPolicy::kMaxTombstones;
  }
  // Half the seeds exercise the decoded-page cache under concurrency.
  options.page_cache_bytes = config_rnd.Bernoulli(0.5) ? (1 << 20) : 0;
  // Half the seeds split multi-file merges into range partitions that fan
  // out across the pool (subcompactions).
  options.max_subcompactions = config_rnd.Bernoulli(0.5) ? 4 : 1;
  // Unified-budget configs: write buffers reserved, sometimes a budget
  // tiny enough that the reservation zeroes the page budget (every page
  // evicted as soon as the next one arrives).
  if (config_rnd.Bernoulli(0.4)) {
    static constexpr uint64_t kBudgets[] = {4 << 10, 64 << 10, 1 << 20};
    options.memory_budget_bytes = kBudgets[config_rnd.Uniform(3)];
  }
  // B in [8, 32]. A 1 KB page holds ~22 of this suite's ~45-byte entries,
  // so a larger B closes pages and tiles by bytes on every path below.
  options.table.entries_per_page =
      8 + static_cast<uint32_t>(config_rnd.Uniform(25));
  // CI's low-memory lane: force every seed through the tiny-budget
  // machinery — a budget smaller than one memtable — so page eviction and
  // the write-buffer reservation churn under the sanitizers on every push.
  if (test::EnvInt("LETHE_STRESS_LOW_MEMORY", 0) > 0) {
    options.memory_budget_bytes = 16 << 10;
  }

  SCOPED_TRACE("config: style=" +
               std::string(options.compaction_style ==
                                   CompactionStyle::kLeveling
                               ? "leveling"
                               : "tiering") +
               " pool=" + std::to_string(options.background_threads) +
               " tiles=" + std::to_string(options.table.pages_per_tile) +
               " B=" + std::to_string(options.table.entries_per_page) +
               " dth=" +
               std::to_string(options.delete_persistence_threshold_micros) +
               " cache=" + std::to_string(options.page_cache_bytes) +
               " subcompactions=" +
               std::to_string(options.max_subcompactions) +
               " budget=" + std::to_string(options.memory_budget_bytes) +
               " rtheavy=" + std::to_string(RtHeavy()));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "stressdb", &db).ok())
      << "seed=" << seed;

  StressState state;
  state.db = db.get();
  state.clock = &clock;

  std::vector<KeyModel> models = SliceModels(seed);
  ASSERT_TRUE(AscendingLoad(db.get(), &clock, seed, &models));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back(RunWorker, &state, seed, t, &models[t]);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(state.failed.load()) << "seed=" << seed;

  // Quiesce, then check the tree's structural invariants.
  ASSERT_TRUE(db->WaitForCompact().ok()) << "seed=" << seed;
  Status invariants =
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << "seed=" << seed << ": "
                               << invariants.ToString();

  // Full model comparison: every key of every slice, present or absent.
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get())) << "post-quiesce";
  }

  // No snapshot is live here: every tombstone must persist within D_th.
  if (options.fade_enabled()) {
    ASSERT_TRUE(TombstonesPersistWithinDth(
        db.get(), &clock, options.delete_persistence_threshold_micros))
        << "seed=" << seed;
    for (const KeyModel& model : models) {
      ASSERT_TRUE(model.CheckAll(db.get())) << "post-persist";
    }
  }

  // Clean reopen: recovery over the surviving WALs + manifest (multi-WAL in
  // background mode) must reproduce the same logical contents.
  db.reset();
  ASSERT_TRUE(DB::Open(options, "stressdb", &db).ok()) << "seed=" << seed;
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get())) << "post-reopen";
  }

  // Repair round trip over the intact MANIFEST: the tree rebuilt from the
  // tables, with the range tombstones, page drops and pending secondary
  // deletes Repair carries over, must hold the same logical contents.
  db.reset();
  ASSERT_TRUE(DB::Repair(options, "stressdb").ok()) << "seed=" << seed;
  ASSERT_TRUE(DB::Open(options, "stressdb", &db).ok()) << "seed=" << seed;
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get())) << "post-repair";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range(1, NumSeeds() + 1));

// Range-local flushes: one writer loads a cold range, then churns a hot
// window just above it, so a leveled flush's buffer spans only part of L0
// and the flush cuts its outputs at the span edge (DBImpl::FlushMemTable).
// Pinned snapshots keep version chains alive across the cut, range
// deletes cross the span edge, and secondary range deletes purge in place
// (applied to the frozen snapshot models too: KiWi's purge is outside
// snapshot isolation). Every read is checked against the live model or a
// pinned snapshot's frozen copy, and everything again after a reopen.
class RangeLocalFlushStress : public ::testing::TestWithParam<int> {};

TEST_P(RangeLocalFlushStress, HotWindowBesideColdRange) {
  const int seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Random config_rnd(static_cast<uint64_t>(seed) * 7919 + 17);

  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = LaneOptions(&env, &clock, &config_rnd);
  options.compaction_style = CompactionStyle::kLeveling;  // cuts need it
  options.size_ratio = 8;  // L0 keeps cold files beside the hot window
  options.table.pages_per_tile = config_rnd.Bernoulli(0.5) ? 4 : 1;
  options.max_subcompactions = config_rnd.Bernoulli(0.5) ? 4 : 1;
  if (config_rnd.Bernoulli(0.3)) {
    options.delete_persistence_threshold_micros = 300000;
    options.file_picking = FilePickingPolicy::kMaxTombstones;
  }
  SCOPED_TRACE("config: pool=" + std::to_string(options.background_threads) +
               " tiles=" + std::to_string(options.table.pages_per_tile) +
               " subcompactions=" +
               std::to_string(options.max_subcompactions) + " dth=" +
               std::to_string(options.delete_persistence_threshold_micros));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "rangelocaldb", &db).ok());

  constexpr uint64_t kColdKeys = 768;
  constexpr uint64_t kHotKeys = 64;
  constexpr int kMaxSnapshots = 3;
  const std::string context =
      "seed=" + std::to_string(seed) + " (" +
      test::ReproHint("LETHE_STRESS_SEEDS", seed) + ")";
  KeyModel live(0, kColdKeys + kHotKeys, context);
  struct PinnedModel {
    const Snapshot* snap;
    KeyModel model;
  };
  std::vector<PinnedModel> pinned;
  uint64_t next_dk = kDeleteKeyBand;
  Random rnd(static_cast<uint64_t>(seed) * 1000003 + 99);

  auto write = [&](const ModelOp& op) {
    ASSERT_TRUE(live.Write(db.get(), op).ok()) << context;
  };
  auto verify = [&](const PinnedModel& p, uint64_t lo, uint64_t hi) {
    ReadOptions read;
    read.snapshot = p.snap;
    ASSERT_TRUE(p.model.CheckScan(db.get(), lo, hi, KeyModel::kExact, read))
        << "snapshot seq=" << p.snap->sequence();
  };

  for (uint64_t k = 0; k < kColdKeys; k++) {
    clock.AdvanceMicros(1);
    write(ModelOp::Put(k, next_dk++,
                       "c" + std::to_string(seed) + "-" + std::to_string(k) +
                           std::string(40, '.')));
  }
  ASSERT_TRUE(db->Flush().ok());

  const uint64_t edge_lo = kColdKeys - 32;
  const uint64_t edge_hi = kColdKeys + kHotKeys;
  const int ops = OpsPerThread() * kThreads;
  for (int i = 0; i < ops && !HasFatalFailure(); i++) {
    clock.AdvanceMicros(7);
    const double roll = rnd.NextDouble();
    const uint64_t hot = kColdKeys + rnd.Uniform(kHotKeys);
    if (roll < 0.55) {
      write(ModelOp::Put(hot, next_dk++,
                         "h" + std::to_string(seed) + "-" + std::to_string(i)));
    } else if (roll < 0.62) {
      write(ModelOp::Delete(hot));
    } else if (roll < 0.68) {  // crosses the hot span's low edge
      write(ModelOp::RangeDelete(kColdKeys - 1 - rnd.Uniform(24),
                                 kColdKeys + 1 + rnd.Uniform(16)));
    } else if (roll < 0.71) {  // prefix band of the delete-key space
      const ModelOp srd = ModelOp::SecondaryRangeDelete(
          kDeleteKeyBand,
          kDeleteKeyBand + 1 + rnd.Uniform(next_dk - kDeleteKeyBand));
      write(srd);
      for (PinnedModel& p : pinned) {
        p.model.Apply(srd);
      }
    } else if (roll < 0.76) {
      ASSERT_TRUE(db->Flush().ok());
    } else if (roll < 0.80 &&
               pinned.size() < static_cast<size_t>(kMaxSnapshots)) {
      pinned.push_back({db->GetSnapshot(), live});
    } else if (roll < 0.83 && !pinned.empty()) {
      const size_t victim = rnd.Uniform(pinned.size());
      db->ReleaseSnapshot(pinned[victim].snap);
      pinned.erase(pinned.begin() + victim);
    } else if (roll < 0.90) {
      ASSERT_TRUE(live.CheckGet(db.get(), rnd.Uniform(edge_hi)));
    } else if (roll < 0.95 || pinned.empty()) {
      ASSERT_TRUE(live.CheckScan(db.get(), edge_lo, edge_hi));
    } else {
      verify(pinned[rnd.Uniform(pinned.size())], edge_lo, edge_hi);
    }
  }
  ASSERT_FALSE(HasFatalFailure());

  ASSERT_TRUE(db->WaitForCompact().ok());
  Status invariants =
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  for (const PinnedModel& p : pinned) {
    verify(p, 0, edge_hi);
    db->ReleaseSnapshot(p.snap);
  }
  ASSERT_TRUE(live.CheckAll(db.get())) << "post-quiesce";
  if (options.fade_enabled()) {
    ASSERT_TRUE(TombstonesPersistWithinDth(
        db.get(), &clock, options.delete_persistence_threshold_micros))
        << context;
    ASSERT_TRUE(live.CheckAll(db.get())) << "post-persist";
  }
  db.reset();
  ASSERT_TRUE(DB::Open(options, "rangelocaldb", &db).ok());
  ASSERT_TRUE(live.CheckAll(db.get())) << "post-reopen";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeLocalFlushStress,
                         ::testing::Range(1, NumSeeds() + 1));

// Chunked-publish concurrency regression (runs under TSan in CI's stress
// lane): one writer publishes range tombstones — crossing many chunk seals
// — while readers continuously take snapshots, probe covers, and flatten
// old snapshots they keep pinned. A data race in the publish path (shared
// sealed-chunk chain, swapped snapshots) is exactly what TSan flags here; the
// asserts check snapshot immutability and monotonic growth.
TEST(RangeTombstonePublishStress, ConcurrentPublishAndRead) {
  MemTable mem;
  constexpr uint64_t kPublishes =
      BufferedRangeTombstones::kRtChunkSize * 20 + 5;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rnd(1000 + r);
      std::shared_ptr<const BufferedRangeTombstones> pinned;
      size_t pinned_size = 0;
      while (!done.load(std::memory_order_acquire) &&
             !failed.load(std::memory_order_relaxed)) {
        auto snap = mem.range_tombstones();
        const size_t n = snap->size();
        // Snapshots only grow, and a snapshot's contents never change:
        // the flattened list must always be the seq-ordered prefix
        // 1..size (tombstones are published with ascending seqs).
        if (n < pinned_size) {
          ADD_FAILURE() << "snapshot shrank: " << n << " < " << pinned_size;
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        std::vector<RangeTombstone> flat = snap->ToVector();
        for (size_t i = 0; i < flat.size(); i++) {
          if (flat[i].seq != i + 1) {
            ADD_FAILURE() << "snapshot order broken at " << i << ": seq "
                          << flat[i].seq;
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
        // Cover probes on both the fresh and a long-pinned snapshot.
        const std::string key(1, static_cast<char>('a' + rnd.Uniform(26)));
        (void)snap->MaxCoverSeq(key);
        (void)mem.MaxRangeTombstoneCoverSeq(key);
        if (pinned != nullptr) {
          (void)pinned->Covers(key, 0);
          if (pinned->size() != pinned_size) {
            ADD_FAILURE() << "pinned snapshot mutated";
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
        if (rnd.Bernoulli(0.1)) {
          pinned = snap;  // hold an old view across future publishes
          pinned_size = n;
        }
      }
    });
  }

  for (uint64_t i = 1; i <= kPublishes; i++) {
    const char b = static_cast<char>('a' + (i % 24));
    RangeTombstone rt;
    rt.begin_key = std::string(1, b);
    rt.end_key = std::string(1, b + 2);
    rt.seq = i;
    rt.time = i;
    mem.AddRangeTombstone(rt);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(mem.range_tombstones()->size(), kPublishes);
}

// ---- crash-point injection --------------------------------------------------
//
// Mid-run, a seed-chosen write fault is armed against either table files
// (".sst": merges die, WAL appends keep succeeding) or the manifest
// ("MANIFEST": merges finish but cannot install). A writer thread records
// its first failed write in its model as Failed() — the engine may or may
// not have applied it durably (e.g. a group whose WAL append succeeded but
// whose post-write handling then surfaced the background error) — and
// stops. After the crash (destructor with the fault still armed, pending
// flushes failing), the DB reopens with the fault cleared; every key must
// then match its model, which allows the failed op's outcome for the keys
// it touches. The reopen also proves the orphan sweep: every .sst left in
// the directory is referenced by the recovered version.

void RunCrashWorker(StressState* state, int seed, int thread_id,
                    KeyModel* model) {
  DB* db = state->db;
  Random rnd(static_cast<uint64_t>(seed) * 777767 + thread_id);
  const uint64_t key_lo = thread_id * kKeysPerThread;
  const uint64_t key_hi = key_lo + kKeysPerThread;
  const uint64_t dk_base =
      (static_cast<uint64_t>(thread_id) + 1) * kDeleteKeyBand;
  uint64_t local_ts = 0;
  const int ops = OpsPerThread();

  for (int i = 0; i < ops && !state->failed.load(std::memory_order_relaxed);
       i++) {
    state->clock->AdvanceMicros(7);
    const double roll = rnd.NextDouble();
    const uint64_t k = key_lo + rnd.Uniform(kKeysPerThread);

    // A failed write is the crash point: the model recorded its possible
    // outcome, and this thread stops writing.
    if (roll < 0.52) {  // put
      uint64_t dk = dk_base + (++local_ts);
      std::string value = "c" + std::to_string(seed) + "-" +
                          std::to_string(thread_id) + "-" + std::to_string(i);
      if (!model->Write(db, ModelOp::Put(k, dk, value)).ok()) {
        return;
      }
    } else if (roll < 0.67) {  // point delete
      if (!model->Write(db, ModelOp::Delete(k)).ok()) {
        return;
      }
    } else if (roll < 0.74) {  // range delete, clipped to the slice
      uint64_t end = std::min(k + 1 + rnd.Uniform(16), key_hi);
      if (end <= k) {
        continue;
      }
      if (!model->Write(db, ModelOp::RangeDelete(k, end)).ok()) {
        return;
      }
    } else {  // point lookup vs the model (reads never see the fault)
      ::testing::AssertionResult r = model->CheckGet(db, k);
      if (!r) {
        Fail(state, "pre-crash " + std::string(r.message()));
        return;
      }
    }
  }
}

class CrashStressTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashStressTest, MidRunWriteFaultRecoversConsistently) {
  const int seed = GetParam();
  SCOPED_TRACE("crash seed=" + std::to_string(seed));
  Random config_rnd(static_cast<uint64_t>(seed) * 7919);

  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = LaneOptions(&env, &clock, &config_rnd);
  options.max_subcompactions = config_rnd.Bernoulli(0.5) ? 4 : 1;
  // Crash + reopen must hold with a unified budget too (the reopen
  // rebuilds reservations from the replayed WALs).
  if (config_rnd.Bernoulli(0.4)) {
    options.memory_budget_bytes = 64 << 10;
  }
  if (test::EnvInt("LETHE_STRESS_LOW_MEMORY", 0) > 0) {
    options.memory_budget_bytes = 16 << 10;
  }

  const char* fault = config_rnd.Bernoulli(0.5) ? ".sst" : "MANIFEST";
  const uint64_t fault_after = 30 + config_rnd.Uniform(150);
  SCOPED_TRACE("config: style=" +
               std::string(options.compaction_style ==
                                   CompactionStyle::kLeveling
                               ? "leveling"
                               : "tiering") +
               " pool=" + std::to_string(options.background_threads) +
               " subcompactions=" +
               std::to_string(options.max_subcompactions) + " fault=" +
               fault + " after=" + std::to_string(fault_after));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "crashdb", &db).ok()) << "seed=" << seed;

  StressState state;
  state.db = db.get();
  state.clock = &clock;

  // The ascending load runs fault-free; its flushes may still be building
  // side by side when the fault is armed.
  std::vector<KeyModel> models = SliceModels(seed);
  ASSERT_TRUE(AscendingLoad(db.get(), &clock, seed, &models));

  // Arm the fault before the workload so merges die mid-run at a
  // seed-dependent point.
  env.InjectFaults(test::FailWritesAfter(fault_after, fault));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back(RunCrashWorker, &state, seed, t, &models[t]);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(state.failed.load()) << "seed=" << seed;

  // Crash: destroy the DB with the fault still armed (pending flushes may
  // fail; their WALs survive for recovery).
  db.reset();
  env.ClearFaults();
  ASSERT_TRUE(DB::Open(options, "crashdb", &db).ok()) << "seed=" << seed;
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get(), KeyModel::kAllowAmbiguous))
        << "post-crash-reopen";
  }

  Status invariants =
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << "seed=" << seed << ": "
                               << invariants.ToString();

  // Orphan sweep: recovery deleted every table file the dead merges left
  // behind — whatever remains is referenced by the recovered version.
  EXPECT_EQ(test::CountTableFiles(&env, "crashdb"),
            test::ReferencedTableFiles(db.get()))
      << "seed=" << seed;

  // A second, fault-free reopen stays stable.
  db.reset();
  ASSERT_TRUE(DB::Open(options, "crashdb", &db).ok()) << "seed=" << seed;
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get(), KeyModel::kAllowAmbiguous))
        << "post-second-reopen";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStressTest,
                         ::testing::Range(1, NumSeeds() + 1));

// ---- serializability-checked transaction lane -------------------------------
//
// N threads run optimistic read-modify-write transactions over one small,
// deliberately overlapping key set, so conflicts are frequent. Each
// successful commit logs {commit_sequence, observed reads, writes}. Because
// commits are validated and applied under the write token, commit_sequence
// order IS the serialization order: after the threads join, the harness
// replays the committed transactions in that order through a serial
// KeyModel and asserts that every transaction's observed reads equal the
// model's state at its commit point. The final model must then equal the DB's
// contents exactly — which simultaneously proves that aborted transactions
// (Status::Busy) left no trace — and must survive a clean reopen.
//
// LETHE_TXN_SEEDS (default 6) and LETHE_TXN_OPS (default 120 transactions
// per thread) scale the lane; CI raises both under ASan and TSan.

int NumTxnSeeds() { return test::EnvInt("LETHE_TXN_SEEDS", 6); }
int TxnsPerThread() { return test::EnvInt("LETHE_TXN_OPS", 120); }

constexpr int kTxnThreads = 4;
constexpr uint64_t kTxnKeys = 64;  // shared by every thread: conflicts galore

/// One committed transaction, as observed by the thread that ran it.
struct CommitRecord {
  SequenceNumber commit_seq = 0;
  // key → value observed at the transaction's snapshot ("" + found=false
  // encodes NotFound).
  std::vector<std::tuple<uint64_t, bool, std::string>> reads;
  // key → staged write (deleted=true for a staged point delete).
  std::vector<std::tuple<uint64_t, bool, std::string>> writes;
};

void RunTxnWorker(StressState* state, int seed, int thread_id,
                  std::vector<CommitRecord>* log,
                  std::atomic<uint64_t>* conflicts) {
  DB* db = state->db;
  Random rnd(static_cast<uint64_t>(seed) * 60013 + thread_id);
  const int txns = TxnsPerThread();

  auto fail = [&](const std::string& what) {
    ADD_FAILURE() << "seed=" << seed << " thread=" << thread_id << ": "
                  << what;
    state->failed.store(true, std::memory_order_relaxed);
  };

  for (int i = 0; i < txns && !state->failed.load(std::memory_order_relaxed);
       i++) {
    state->clock->AdvanceMicros(5);
    if (rnd.Bernoulli(0.03)) {  // occasional barrier to churn the tree
      Status s = rnd.Bernoulli(0.5) ? db->Flush() : db->WaitForCompact();
      if (!s.ok()) {
        fail("barrier failed: " + s.ToString());
        return;
      }
    }

    OptimisticTransaction txn(db);
    CommitRecord record;

    // Read-modify-write over two distinct random keys.
    const uint64_t k1 = rnd.Uniform(kTxnKeys);
    uint64_t k2 = rnd.Uniform(kTxnKeys);
    if (k2 == k1) {
      k2 = (k2 + 1) % kTxnKeys;
    }
    for (uint64_t k : {k1, k2}) {
      std::string value;
      Status s = txn.Get(ReadOptions(), EncodeKey(k), &value);
      if (s.ok()) {
        record.reads.emplace_back(k, true, value);
      } else if (s.IsNotFound()) {
        record.reads.emplace_back(k, false, "");
      } else {
        fail("txn get failed: " + s.ToString());
        return;
      }
      if (rnd.Bernoulli(0.15)) {
        s = txn.Delete(EncodeKey(k));
        record.writes.emplace_back(k, true, "");
      } else {
        std::string next = "s" + std::to_string(seed) + "t" +
                           std::to_string(thread_id) + "n" +
                           std::to_string(i) + "k" + std::to_string(k);
        s = txn.Put(EncodeKey(k), /*delete_key=*/0, next);
        record.writes.emplace_back(k, false, next);
      }
      if (!s.ok()) {
        fail("txn write failed: " + s.ToString());
        return;
      }
    }

    Status s = txn.Commit();
    if (s.ok()) {
      record.commit_seq = txn.commit_sequence();
      log->push_back(std::move(record));
    } else if (s.IsBusy()) {
      conflicts->fetch_add(1, std::memory_order_relaxed);
    } else {
      fail("commit failed: " + s.ToString());
      return;
    }
  }
}

class TxnStressTest : public ::testing::TestWithParam<int> {};

TEST_P(TxnStressTest, SerializableCommitHistory) {
  const int seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Random config_rnd(static_cast<uint64_t>(seed) * 31337);

  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = LaneOptions(&env, &clock, &config_rnd);
  if (config_rnd.Bernoulli(0.4)) {
    options.delete_persistence_threshold_micros = 300000;
    options.file_picking = FilePickingPolicy::kMaxTombstones;
  }
  SCOPED_TRACE("config: style=" +
               std::string(options.compaction_style ==
                                   CompactionStyle::kLeveling
                               ? "leveling"
                               : "tiering") +
               " pool=" + std::to_string(options.background_threads) +
               " dth=" +
               std::to_string(options.delete_persistence_threshold_micros));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "txnstressdb", &db).ok()) << "seed=" << seed;

  StressState state;
  state.db = db.get();
  state.clock = &clock;

  std::vector<std::vector<CommitRecord>> logs(kTxnThreads);
  std::atomic<uint64_t> conflicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTxnThreads; t++) {
    threads.emplace_back(RunTxnWorker, &state, seed, t, &logs[t], &conflicts);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(state.failed.load()) << "seed=" << seed;
  ASSERT_TRUE(db->WaitForCompact().ok()) << "seed=" << seed;

  // Merge the per-thread logs into one history ordered by commit sequence.
  std::vector<CommitRecord> history;
  for (auto& log : logs) {
    history.insert(history.end(), std::make_move_iterator(log.begin()),
                   std::make_move_iterator(log.end()));
  }
  std::sort(history.begin(), history.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.commit_seq < b.commit_seq;
            });
  for (size_t i = 1; i < history.size(); i++) {
    ASSERT_LT(history[i - 1].commit_seq, history[i].commit_seq)
        << "seed=" << seed << ": two commits share a sequence";
  }
  ASSERT_GT(history.size(), 0u) << "seed=" << seed << ": nothing committed";
  EXPECT_EQ(db->stats().txn_commits.load(), history.size())
      << "seed=" << seed;
  EXPECT_EQ(db->stats().txn_conflicts.load(), conflicts.load())
      << "seed=" << seed;

  // Serial replay: every committed transaction's observed reads must match
  // the model at its position in commit order (validation guarantees the
  // read snapshot was still current at the commit point). Transactions
  // write delete key 0.
  KeyModel serial(0, kTxnKeys,
                  "seed=" + std::to_string(seed) + " (" +
                      test::ReproHint("LETHE_TXN_SEEDS", seed) + ")");
  for (const CommitRecord& record : history) {
    for (const auto& [k, found, value] : record.reads) {
      ASSERT_TRUE(serial.CheckRead(
          k, found ? Status::OK() : Status::NotFound(), value, 0))
          << "commit_seq=" << record.commit_seq
          << ": a read diverges from the serial replay";
    }
    for (const auto& [k, deleted, value] : record.writes) {
      serial.Apply(deleted ? ModelOp::Delete(k) : ModelOp::Put(k, 0, value));
    }
  }

  // The DB's final state must equal the serial replay exactly — any stray
  // effect from an aborted transaction would surface here.
  ASSERT_TRUE(serial.CheckAll(db.get())) << "post-join";
  db.reset();
  ASSERT_TRUE(DB::Open(options, "txnstressdb", &db).ok()) << "seed=" << seed;
  ASSERT_TRUE(serial.CheckAll(db.get())) << "post-reopen";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnStressTest,
                         ::testing::Range(1, NumTxnSeeds() + 1));

}  // namespace
}  // namespace lethe
