// Multi-DB stress lane for the ShardedDB facade (ctest label: "sharded";
// CI runs it under ASan and TSan).
//
//   - LinearizableMultiShardWorkload: N writer threads own disjoint key
//     slices of a ShardedDB while reader threads probe every slice. A
//     history recorder stamps each operation with invocation/response
//     windows from one global logical clock; after the threads join, a
//     per-key linearizability checker replays the windows (each key is a
//     single-writer atomic register with uniquely versioned values, so the
//     check is exact: a read may only return a version that was invoked
//     before the read returned and not yet certainly overwritten when the
//     read began). A snapshot thread concurrently validates the cross-shard
//     consistent-cut guarantee with happened-after chains: every writer
//     Puts chain key A (low shard), waits for the ack, then Puts chain key
//     B (another shard) with the same counter — no snapshot may ever see
//     B's counter ahead of A's. Seeded configs sweep num_shards ∈ {1,2,4}
//     × router type (hash/range) × pool size × budget mode.
//   - BrokenSnapshotCutIsCaught: proves the checker has teeth. The
//     TEST_SetSkipSnapshotPause hook turns off the cross-shard write pause
//     (and dawdles between per-shard snapshot acquisitions); the same
//     chain checker must observe an inconsistent cut within the default
//     budget.
//   - SharedBudgetStarvation: one write-hot shard + three idle shards under
//     a tiny unified budget — idle reads keep completing correctly, and
//     the tree invariants hold on every shard afterwards.
//   - FaultIsolation: FaultPolicy EIOs exactly one shard's .sst writes.
//     Only that shard's error handler degrades, siblings keep serving
//     reads and writes, and a crash + reopen of the whole facade loses
//     nothing acknowledged (checked against a test::KeyModel that allows
//     the failed writes' outcomes on the faulted shard).
//   - CloseShardWhileSiblingCompacts: shutdown-ordering regression for the
//     multi-owner pool — closing shard 0 (per-owner drain) while shard 1
//     compacts must neither hang nor disturb shard 1.
//
// Reproduction: every failure message carries the seed; run one with
// LETHE_SHARD_SEEDS=<seed> and
// --gtest_filter=Seeds/ShardedStressTest.LinearizableMultiShardWorkload/<seed-1>
// (gtest param indices are 0-based, seeds start at 1). LETHE_SHARD_SEEDS
// (default 6) and LETHE_SHARD_OPS (default 300) scale the lane; CI raises
// them, tier-1 keeps the defaults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/error_handler.h"
#include "src/lsm/sharded_db.h"
#include "src/workload/generator.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using workload::EncodeKey;

using test::KeyModel;
using test::ModelOp;
using test::WaitFor;

int NumShardSeeds() { return test::EnvInt("LETHE_SHARD_SEEDS", 6); }
int ShardOpsPerThread() { return test::EnvInt("LETHE_SHARD_OPS", 300); }

// ---- linearizability harness ------------------------------------------------

constexpr int kWriters = 3;
constexpr int kReaders = 2;
constexpr uint64_t kKeysPerWriter = 64;
constexpr uint64_t kRegisterKeys = kWriters * kKeysPerWriter;
// Chain keys live above the register space but inside the routed space, so
// range splits cover them too.
constexpr uint64_t kChainRegionLo = kRegisterKeys;
constexpr uint64_t kTotalKeySpace = 448;

/// One write against a register key, with its real-time window. Writes to a
/// key are issued by one thread, so version v (1-based) is simply the v-th
/// entry of the key's op list.
struct OpWindow {
  bool is_delete = false;
  uint64_t inv = 0;
  uint64_t resp = 0;
};

/// One observed read of a register key. version == 0 encodes NotFound.
struct ReadRecord {
  uint64_t key = 0;
  uint64_t version = 0;
  uint64_t inv = 0;
  uint64_t resp = 0;
};

struct ShardedState {
  DB* db = nullptr;
  LogicalClock* clock = nullptr;
  std::atomic<bool> failed{false};
  std::atomic<bool> writers_done{false};
  // The harness's real-time axis: every invocation and response draws a
  // fresh tick, so windows are totally ordered and never ambiguous.
  std::atomic<uint64_t> ticks{0};
};

/// Writer thread: uniquely versioned Puts and Deletes over its own register
/// slice (history recorded per key), interleaved with a happened-after
/// chain for the snapshot-cut checker: Put(chain A, x) — ack — Put(chain
/// B, x). A consistent cut can therefore never show B ahead of A.
void RunShardWriter(ShardedState* state, int seed, int thread_id,
                    std::vector<std::vector<OpWindow>>* history,
                    uint64_t chain_a, uint64_t chain_b) {
  DB* db = state->db;
  Random rnd(static_cast<uint64_t>(seed) * 1000003 + thread_id);
  const uint64_t key_lo = thread_id * kKeysPerWriter;
  const int ops = ShardOpsPerThread();
  uint64_t chain_x = 0;

  auto fail = [&](const std::string& what) {
    ADD_FAILURE() << "seed=" << seed << " writer=" << thread_id << ": "
                  << what;
    state->failed.store(true, std::memory_order_relaxed);
  };

  for (int i = 0; i < ops && !state->failed.load(std::memory_order_relaxed);
       i++) {
    state->clock->AdvanceMicros(7);
    const double roll = rnd.NextDouble();
    if (roll < 0.08) {  // happened-after chain step for the cut checker
      chain_x++;
      const std::string x = std::to_string(chain_x);
      if (!db->Put(WriteOptions(), EncodeKey(chain_a), 0, x).ok()) {
        fail("chain put A failed");
        return;
      }
      // A is acknowledged; B with the same counter starts strictly after.
      if (!db->Put(WriteOptions(), EncodeKey(chain_b), 0, x).ok()) {
        fail("chain put B failed");
        return;
      }
    } else if (roll < 0.10) {  // rare cross-shard barrier from a worker
      Status s = rnd.Bernoulli(0.5) ? db->Flush() : db->WaitForCompact();
      if (!s.ok()) {
        fail("barrier failed: " + s.ToString());
        return;
      }
    } else {  // register write: Put a fresh version, or Delete
      const uint64_t slot = rnd.Uniform(kKeysPerWriter);
      const uint64_t k = key_lo + slot;
      std::vector<OpWindow>& key_ops = (*history)[k];
      OpWindow op;
      op.is_delete = rnd.Bernoulli(0.2);
      const uint64_t version = key_ops.size() + 1;
      op.inv = ++state->ticks;
      Status s =
          op.is_delete
              ? db->Delete(WriteOptions(), EncodeKey(k))
              : db->Put(WriteOptions(), EncodeKey(k), /*delete_key=*/0,
                        std::to_string(version));
      op.resp = ++state->ticks;
      if (!s.ok()) {
        fail("register write failed: " + s.ToString());
        return;
      }
      key_ops.push_back(op);
    }
  }
}

/// Reader thread: random register probes with recorded windows. Values are
/// version numbers; NotFound records version 0.
void RunShardReader(ShardedState* state, int seed, int thread_id,
                    std::vector<ReadRecord>* reads) {
  DB* db = state->db;
  Random rnd(static_cast<uint64_t>(seed) * 39916801 + thread_id);
  while (!state->writers_done.load(std::memory_order_acquire) &&
         !state->failed.load(std::memory_order_relaxed)) {
    ReadRecord record;
    record.key = rnd.Uniform(kRegisterKeys);
    std::string value;
    record.inv = ++state->ticks;
    Status s = db->Get(ReadOptions(), EncodeKey(record.key), &value);
    record.resp = ++state->ticks;
    if (s.ok()) {
      record.version = std::stoull(value);
    } else if (s.IsNotFound()) {
      record.version = 0;
    } else {
      ADD_FAILURE() << "seed=" << seed << " reader=" << thread_id
                    << ": get failed: " << s.ToString();
      state->failed.store(true, std::memory_order_relaxed);
      return;
    }
    reads->push_back(record);
  }
}

/// Snapshot thread: pins cross-shard cuts and checks the happened-after
/// chains (B may never lead A) plus merged-scan key ordering under each
/// cut. Returns the number of cut violations through `violations` so the
/// broken-cut test can assert they ARE detected.
void RunSnapshotChecker(ShardedState* state, int seed,
                        const std::vector<std::pair<uint64_t, uint64_t>>&
                            chains,
                        std::atomic<uint64_t>* violations,
                        bool expect_violations) {
  DB* db = state->db;
  auto chain_value = [&](const ReadOptions& ro, uint64_t k,
                         uint64_t* out) -> bool {
    std::string value;
    Status s = db->Get(ro, EncodeKey(k), &value);
    if (s.ok()) {
      *out = std::stoull(value);
      return true;
    }
    if (s.IsNotFound()) {
      *out = 0;
      return true;
    }
    ADD_FAILURE() << "seed=" << seed << ": chain read failed: "
                  << s.ToString();
    state->failed.store(true, std::memory_order_relaxed);
    return false;
  };

  int iteration = 0;
  while (!state->writers_done.load(std::memory_order_acquire) &&
         !state->failed.load(std::memory_order_relaxed)) {
    if (expect_violations &&
        violations->load(std::memory_order_relaxed) > 0) {
      return;  // the broken mode was caught; job done
    }
    const Snapshot* snap = db->GetSnapshot();
    ReadOptions ro;
    ro.snapshot = snap;
    for (const auto& [a, b] : chains) {
      uint64_t va = 0, vb = 0;
      if (!chain_value(ro, a, &va) || !chain_value(ro, b, &vb)) {
        db->ReleaseSnapshot(snap);
        return;
      }
      if (vb > va) {
        violations->fetch_add(1, std::memory_order_relaxed);
        if (!expect_violations) {
          ADD_FAILURE() << "seed=" << seed << ": inconsistent cut: chain key "
                        << b << " shows counter " << vb
                        << " but its happened-before key " << a
                        << " shows only " << va;
          state->failed.store(true, std::memory_order_relaxed);
        }
      }
    }
    // Every 8th cut: the K-way merged scan must yield strictly ascending
    // keys and a clean status.
    if (++iteration % 8 == 0) {
      auto it = db->NewIterator(ro);
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        if (!prev.empty() && it->key().compare(Slice(prev)) <= 0) {
          ADD_FAILURE() << "seed=" << seed
                        << ": merged scan out of order at "
                        << it->key().ToString();
          state->failed.store(true, std::memory_order_relaxed);
          break;
        }
        prev = it->key().ToString();
      }
      if (!it->status().ok()) {
        ADD_FAILURE() << "seed=" << seed << ": merged scan status: "
                      << it->status().ToString();
        state->failed.store(true, std::memory_order_relaxed);
      }
    }
    db->ReleaseSnapshot(snap);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Exact per-key linearizability check for a single-writer register with
/// uniquely versioned values. For a read with window [inv, resp):
///   C = newest version whose write certainly completed before the read
///       began (resp(write) < inv(read)) — the read may not be older;
///   V = newest version whose write had been invoked before the read
///       returned (inv(write) < resp(read)) — the read may not be newer.
/// A read of version v is linearizable iff C <= v <= V, v is a Put (v >= 1)
/// or the state at some allowed version is "absent" (v == 0: the
/// initial state when C == 0, or any Delete in [C, V]).
void CheckReadLinearizable(int seed,
                           const std::vector<std::vector<OpWindow>>& history,
                           const ReadRecord& read) {
  const std::vector<OpWindow>& ops = history[read.key];
  uint64_t certain = 0;  // C
  uint64_t visible = 0;  // V
  for (size_t v = 1; v <= ops.size(); v++) {
    if (ops[v - 1].resp < read.inv) {
      certain = v;
    }
    if (ops[v - 1].inv < read.resp) {
      visible = v;
    }
  }
  if (read.version == 0) {
    bool absent_allowed = certain == 0;  // initial absence still observable
    for (uint64_t v = std::max<uint64_t>(certain, 1);
         v <= visible && !absent_allowed; v++) {
      absent_allowed = ops[v - 1].is_delete;
    }
    ASSERT_TRUE(absent_allowed)
        << "seed=" << seed << ": non-linearizable read of key " << read.key
        << ": NotFound in window [" << read.inv << "," << read.resp
        << ") but versions [" << certain << "," << visible
        << "] admit no absent state";
    return;
  }
  ASSERT_GE(read.version, 1u);
  ASSERT_LE(read.version, ops.size())
      << "seed=" << seed << ": read of key " << read.key
      << " returned version " << read.version << " that was never written";
  ASSERT_FALSE(ops[read.version - 1].is_delete)
      << "seed=" << seed << ": read of key " << read.key
      << " returned a Delete's version " << read.version;
  ASSERT_GE(read.version, certain)
      << "seed=" << seed << ": stale read of key " << read.key
      << ": version " << read.version << " but version " << certain
      << " completed before the read began";
  ASSERT_LE(read.version, visible)
      << "seed=" << seed << ": future read of key " << read.key
      << ": version " << read.version
      << " was not yet invoked when the read returned";
}

/// Replicates the facade's routing so tests can place keys on chosen
/// shards. `splits` must match what the Options carry for the range router.
std::unique_ptr<KeyRouter> MakeRouterReplica(
    ShardRouterKind kind, const std::vector<std::string>& splits) {
  if (kind == ShardRouterKind::kRange) {
    return std::make_unique<RangeKeyRouter>(splits);
  }
  return std::make_unique<HashKeyRouter>();
}

/// Chain key pair for one writer: A on the lowest-index shard available in
/// the chain region, B on the highest; in the broken-cut mode that is the
/// widest pin-order gap, so a missed pause is caught fastest. Falls back to
/// any two region keys when only one shard exists.
std::pair<uint64_t, uint64_t> PickChainKeys(const KeyRouter& router,
                                            int num_shards, int writer) {
  const uint64_t lo = kChainRegionLo + writer * 2;
  uint64_t best_a = lo, best_b = lo + 1;
  int best_a_shard = num_shards, best_b_shard = -1;
  for (uint64_t k = kChainRegionLo + writer;
       k < kTotalKeySpace; k += kWriters) {
    const int s = router.ShardOf(Slice(EncodeKey(k)), num_shards);
    if (s < best_a_shard) {
      best_a_shard = s;
      best_a = k;
    }
    if (s > best_b_shard) {
      best_b_shard = s;
      best_b = k;
    }
  }
  if (best_a == best_b) {
    // Single shard (or single-shard hash bucket): any second key from this
    // writer's residue class works — classes keep writers' chains disjoint.
    best_b = best_a + kWriters;
  }
  return {best_a, best_b};
}

std::vector<std::string> RangeSplits(int num_shards) {
  std::vector<std::string> splits;
  for (int i = 1; i < num_shards; i++) {
    splits.push_back(EncodeKey(kTotalKeySpace * i / num_shards));
  }
  return splits;
}

/// Background-mode options over `num_shards` shards on a 2-worker pool with
/// 1 KB pages, range-routed at `splits` (hash-routed when empty).
Options ShardOptions(Env* env, Clock* clock, int num_shards,
                     const std::vector<uint64_t>& splits) {
  Options options;
  options.env = env;
  options.clock = clock;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;
  options.inline_compactions = false;
  options.background_threads = 2;
  options.num_shards = num_shards;
  options.shard_router =
      splits.empty() ? ShardRouterKind::kHash : ShardRouterKind::kRange;
  for (uint64_t split : splits) {
    options.shard_split_keys.push_back(EncodeKey(split));
  }
  return options;
}

class ShardedStressTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedStressTest, LinearizableMultiShardWorkload) {
  const int seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Random config_rnd(static_cast<uint64_t>(seed) * 104729);

  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options;
  options.env = &env;
  options.clock = &clock;
  options.write_buffer_bytes = 8 << 10;  // constant flush pressure
  options.target_file_bytes = 8 << 10;
  options.size_ratio = 3;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;
  options.compaction_style = config_rnd.Bernoulli(0.5)
                                 ? CompactionStyle::kLeveling
                                 : CompactionStyle::kTiering;
  options.inline_compactions = false;
  static constexpr int kShardCounts[] = {1, 2, 4};
  options.num_shards = kShardCounts[config_rnd.Uniform(3)];
  options.shard_router = config_rnd.Bernoulli(0.5) ? ShardRouterKind::kHash
                                                   : ShardRouterKind::kRange;
  if (options.shard_router == ShardRouterKind::kRange) {
    options.shard_split_keys = RangeSplits(options.num_shards);
  }
  static constexpr int kPools[] = {1, 2, 4};
  options.background_threads = kPools[config_rnd.Uniform(3)];
  if (config_rnd.Bernoulli(0.4)) {  // shared unified budget across shards
    options.memory_budget_bytes = 128 << 10;
  } else if (config_rnd.Bernoulli(0.5)) {
    options.page_cache_bytes = 1 << 20;  // plain shared block cache
  }
  SCOPED_TRACE(
      "config: shards=" + std::to_string(options.num_shards) + " router=" +
      (options.shard_router == ShardRouterKind::kHash ? "hash" : "range") +
      " pool=" + std::to_string(options.background_threads) + " style=" +
      (options.compaction_style == CompactionStyle::kLeveling ? "leveling"
                                                              : "tiering") +
      " budget=" + std::to_string(options.memory_budget_bytes) +
      " cache=" + std::to_string(options.page_cache_bytes));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "sharddb", &db).ok()) << "seed=" << seed;

  ShardedState state;
  state.db = db.get();
  state.clock = &clock;

  auto router =
      MakeRouterReplica(options.shard_router, options.shard_split_keys);
  std::vector<std::pair<uint64_t, uint64_t>> chains;
  for (int t = 0; t < kWriters; t++) {
    chains.push_back(PickChainKeys(*router, options.num_shards, t));
  }

  // history[k] = ordered writes to register key k (single writer per key).
  std::vector<std::vector<OpWindow>> history(kRegisterKeys);
  std::vector<std::vector<ReadRecord>> reads(kReaders);
  std::atomic<uint64_t> cut_violations{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back(RunShardWriter, &state, seed, t, &history,
                         chains[t].first, chains[t].second);
  }
  for (int t = 0; t < kReaders; t++) {
    threads.emplace_back(RunShardReader, &state, seed, t, &reads[t]);
  }
  std::thread snapshot_thread(RunSnapshotChecker, &state, seed, chains,
                              &cut_violations, /*expect_violations=*/false);
  for (int t = 0; t < kWriters; t++) {
    threads[t].join();
  }
  state.writers_done.store(true, std::memory_order_release);
  for (int t = kWriters; t < static_cast<int>(threads.size()); t++) {
    threads[t].join();
  }
  snapshot_thread.join();
  ASSERT_FALSE(state.failed.load()) << "seed=" << seed;
  EXPECT_EQ(cut_violations.load(), 0u) << "seed=" << seed;

  // Linearizability: every recorded read must fit the per-key history.
  for (const auto& reader_log : reads) {
    for (const ReadRecord& read : reader_log) {
      CheckReadLinearizable(seed, history, read);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

  // Quiesce, then structural invariants on every shard, then a full final
  // state check: each register must hold its last surviving version.
  ASSERT_TRUE(db->WaitForCompact().ok()) << "seed=" << seed;
  if (options.num_shards > 1) {
    auto* sharded = static_cast<ShardedDB*>(db.get());
    Status invariants = sharded->TEST_VerifyTreeInvariants();
    ASSERT_TRUE(invariants.ok())
        << "seed=" << seed << ": " << invariants.ToString();
  } else {
    // num_shards == 1 opens a plain DBImpl — no facade in the path.
    Status invariants =
        static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants();
    ASSERT_TRUE(invariants.ok())
        << "seed=" << seed << ": " << invariants.ToString();
  }

  KeyModel registers(0, kRegisterKeys,
                     "seed=" + std::to_string(seed) + " (" +
                         test::ReproHint("LETHE_SHARD_SEEDS", seed) + ")");
  for (uint64_t k = 0; k < kRegisterKeys; k++) {
    if (!history[k].empty() && !history[k].back().is_delete) {
      registers.Apply(ModelOp::Put(k, 0, std::to_string(history[k].size())));
    }
  }
  ASSERT_TRUE(registers.CheckAll(db.get())) << "post-quiesce";

  // Clean reopen: every shard recovers its WAL/manifest independently; the
  // facade must reassemble the same logical contents.
  db.reset();
  ASSERT_TRUE(DB::Open(options, "sharddb", &db).ok()) << "seed=" << seed;
  ASSERT_TRUE(registers.CheckAll(db.get())) << "post-reopen";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedStressTest,
                         ::testing::Range(1, NumShardSeeds() + 1));

// ---- the checker catches a broken cut --------------------------------------

TEST(ShardedBrokenCutTest, BrokenSnapshotCutIsCaught) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = ShardOptions(&env, &clock, 4, {});
  options.write_buffer_bytes = 64 << 10;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "brokencutdb", &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());
  // The deliberately broken mode: no cross-shard pause, and the facade
  // dawdles between per-shard snapshot acquisitions.
  sharded->TEST_SetSkipSnapshotPause(true);

  ShardedState state;
  state.db = db.get();
  state.clock = &clock;

  HashKeyRouter router;
  std::vector<std::pair<uint64_t, uint64_t>> chains;
  for (int t = 0; t < kWriters; t++) {
    chains.push_back(PickChainKeys(router, options.num_shards, t));
  }

  std::vector<std::vector<OpWindow>> history(kRegisterKeys);
  std::atomic<uint64_t> cut_violations{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    // Seed 1, chain-heavy: the writers mostly run the A-then-B protocol.
    writers.emplace_back([&, t] {
      DB* wdb = state.db;
      uint64_t x = 0;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!state.writers_done.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < deadline) {
        x++;
        const std::string v = std::to_string(x);
        if (!wdb->Put(WriteOptions(), EncodeKey(chains[t].first), 0, v)
                 .ok() ||
            !wdb->Put(WriteOptions(), EncodeKey(chains[t].second), 0, v)
                 .ok()) {
          return;
        }
      }
    });
  }
  std::thread checker(RunSnapshotChecker, &state, /*seed=*/1, chains,
                      &cut_violations, /*expect_violations=*/true);
  // Give the checker the default budget to catch the broken mode.
  WaitFor([&] { return cut_violations.load() > 0; }, 10000);
  state.writers_done.store(true, std::memory_order_release);
  for (auto& w : writers) {
    w.join();
  }
  checker.join();
  ASSERT_FALSE(state.failed.load());
  EXPECT_GT(cut_violations.load(), 0u)
      << "the linearizability lane failed to catch the broken snapshot cut";
}

// ---- shared-budget starvation ----------------------------------------------

TEST(ShardedBudgetTest, SharedBudgetStarvation) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = ShardOptions(&env, &clock, 4, {256, 512, 768});
  options.write_buffer_bytes = 8 << 10;
  options.target_file_bytes = 8 << 10;
  options.size_ratio = 3;
  // A budget smaller than the sum of the four write-buffer reservations:
  // the hot shard must squeeze the block budget (its reservation evicts the
  // cold shards' blocks) rather than grow the process; cold shards must
  // still serve.
  options.memory_budget_bytes = 16 << 10;
  options.cache_index_and_filter_blocks = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "budgetdb", &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());

  // Pre-seed the three idle shards (bands 1..3) and push them to disk.
  for (int band = 1; band < 4; band++) {
    for (uint64_t i = 0; i < 48; i++) {
      const uint64_t k = band * 256 + i;
      ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), 0,
                          "idle-" + std::to_string(k))
                      .ok());
    }
  }
  ASSERT_TRUE(db->Flush().ok());

  // One write-hot shard (band 0) vs. concurrent idle-shard readers.
  std::atomic<bool> hot_done{false};
  std::atomic<bool> failed{false};
  std::thread hot([&] {
    Random rnd(42);
    for (int i = 0; i < 600 && !failed.load(); i++) {
      clock.AdvanceMicros(5);
      const uint64_t k = rnd.Uniform(256);
      std::string value(96, 'h');
      if (!db->Put(WriteOptions(), EncodeKey(k), 0, value).ok()) {
        ADD_FAILURE() << "hot put failed";
        failed.store(true);
      }
    }
    hot_done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> idle_reads{0};
  for (int band = 1; band < 4; band++) {
    readers.emplace_back([&, band] {
      Random rnd(1000 + band);
      while (!hot_done.load(std::memory_order_acquire) && !failed.load()) {
        const uint64_t k = band * 256 + rnd.Uniform(48);
        std::string value;
        Status s = db->Get(ReadOptions(), EncodeKey(k), &value);
        if (!s.ok() || value != "idle-" + std::to_string(k)) {
          ADD_FAILURE() << "idle read of key " << k << " failed under "
                        << "budget pressure: "
                        << (s.ok() ? "'" + value + "'" : s.ToString());
          failed.store(true);
          return;
        }
        idle_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  hot.join();
  for (auto& r : readers) {
    r.join();
  }
  ASSERT_FALSE(failed.load());
  EXPECT_GT(idle_reads.load(), 0u);

  // The per-shard tree invariants must hold after the pressure.
  ASSERT_TRUE(db->WaitForCompact().ok());
  Status invariants = sharded->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();
}

// ---- fault isolation + crash/reopen ----------------------------------------

TEST(ShardedFaultTest, FaultIsolationAndCrashReopen) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = ShardOptions(&env, &clock, 4, {256, 512, 768});
  options.write_buffer_bytes = 4 << 10;  // frequent flushes
  options.target_file_bytes = 8 << 10;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "faultdb", &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());

  // EIO every .sst write of shard 2 only (both substrings must match).
  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kIOError;
  policy.fail_appends = true;
  policy.fail_creates = true;
  policy.path_substring = "shard-2";
  policy.path_substring2 = ".sst";
  env.InjectFaults(policy);

  // Writes to the faulted band may start failing once its shard degrades;
  // the model records each failed write's outcome as allowed.
  KeyModel model(0, 1024, "ShardedFaultTest (" + test::ReproHint() + ")");
  Random rnd(7);
  for (int i = 0; i < 500; i++) {
    clock.AdvanceMicros(5);
    const uint64_t k = rnd.Uniform(1024);
    Status s = model.Write(db.get(),
                           ModelOp::Put(k, 0, "f" + std::to_string(i)));
    if (!s.ok()) {
      ASSERT_EQ(k / 256, 2u) << "sibling shard write failed: " << s.ToString();
    }
  }

  // Force flushes: shard 2's must die on the injected EIO, the siblings'
  // must succeed; the facade surfaces the one failure.
  Status flush = db->Flush();
  EXPECT_FALSE(flush.ok());

  // Only shard 2 degrades; the siblings stay healthy and keep serving.
  ASSERT_TRUE(WaitFor(
      [&] {
        return sharded->TEST_shard(2)->TEST_error_handler()->health() !=
               DBHealth::kHealthy;
      },
      10000));
  for (int i : {0, 1, 3}) {
    EXPECT_EQ(sharded->TEST_shard(i)->TEST_error_handler()->health(),
              DBHealth::kHealthy)
        << "sibling shard " << i << " degraded";
  }
  ASSERT_TRUE(model.CheckAll(db.get(), KeyModel::kAllowAmbiguous))
      << "while shard 2 is degraded";

  // Crash the whole facade with the fault still armed, then reopen clean.
  db.reset();
  env.ClearFaults();
  ASSERT_TRUE(DB::Open(options, "faultdb", &db).ok());
  ASSERT_TRUE(model.CheckAll(db.get(), KeyModel::kAllowAmbiguous))
      << "after crash and reopen";
  Status invariants =
      static_cast<ShardedDB*>(db.get())->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();
}

// ---- multi-owner pool shutdown ordering -------------------------------------

TEST(ShardedShutdownTest, CloseShardWhileSiblingCompacts) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options = ShardOptions(&env, &clock, 2, {512});
  options.write_buffer_bytes = 4 << 10;  // lots of files -> compaction churn
  options.target_file_bytes = 4 << 10;
  options.size_ratio = 2;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "shutdowndb", &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());

  // Load both shards hard enough that flushes and compactions are queued
  // and running on the shared pool when shard 0 goes away.
  Random rnd(11);
  for (int i = 0; i < 400; i++) {
    clock.AdvanceMicros(3);
    const uint64_t k0 = rnd.Uniform(512);
    const uint64_t k1 = 512 + rnd.Uniform(512);
    std::string value(64, 'x');
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k0), 0, value).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k1), 0,
                        "s1-" + std::to_string(k1))
                    .ok());
  }

  // Close shard 0 mid-churn: its queued jobs are discarded and its running
  // jobs waited out; shard 1's jobs on the same pool must be untouched.
  sharded->TEST_CloseShard(0);

  // Shard 1 keeps working end to end on the shared (still-live) pool.
  for (uint64_t k = 512; k < 532; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), 0,
                        "s1-" + std::to_string(k))
                    .ok());
  }
  ASSERT_TRUE(sharded->TEST_shard(1)->WaitForCompact().ok());
  for (uint64_t k = 512; k < 532; k++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &value).ok())
        << "key " << k << " unreadable after sibling shutdown";
    ASSERT_EQ(value, "s1-" + std::to_string(k));
  }
  Status invariants = sharded->TEST_shard(1)->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();
}

// ---- facade surface basics --------------------------------------------------

TEST(ShardedBasicsTest, SingleShardOpensPlainDBImpl) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  Options options;
  options.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "plaindb", &db).ok());
  // num_shards == 1 (the default) must not interpose the facade.
  EXPECT_NE(dynamic_cast<DBImpl*>(db.get()), nullptr);
}

TEST(ShardedBasicsTest, CrossShardBatchRangeDeleteAndAggregates) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = ShardOptions(&env, &clock, 4, {256, 512, 768});
  options.write_buffer_bytes = 8 << 10;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "basicsdb", &db).ok());

  // A batch spanning all four shards commits per shard, a sort-key range
  // delete spans the middle two shards, and a secondary (delete-key) range
  // delete fans out to every shard.
  KeyModel model(0, 1024, test::ReproHint());
  WriteBatch batch;
  for (uint64_t k = 0; k < 1024; k += 128) {
    batch.Put(EncodeKey(k), /*delete_key=*/k + 1, "b" + std::to_string(k));
  }
  ASSERT_TRUE(model.Write(db.get(), ModelOp::Batch(std::move(batch))).ok());
  ASSERT_TRUE(model.CheckAll(db.get()));
  ASSERT_TRUE(model.Write(db.get(), ModelOp::RangeDelete(256, 768)).ok());
  ASSERT_TRUE(model.CheckAll(db.get()));
  ASSERT_TRUE(
      model.Write(db.get(), ModelOp::SecondaryRangeDelete(0, 2000)).ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  ASSERT_TRUE(model.CheckAll(db.get()));
  ASSERT_EQ(model.size(), 0u);

  // Aggregated introspection covers all shards.
  for (uint64_t k = 0; k < 64; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k * 16), 0, "z").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->ApproximateEntryCount(), 64u);
  uint64_t level_entries = 0;
  for (const auto& level : db->GetLevelSnapshots()) {
    level_entries += level.num_entries;
  }
  EXPECT_EQ(level_entries, 64u);
  double samp = -1;
  ASSERT_TRUE(db->ComputeSpaceAmplification(&samp).ok());
  EXPECT_GE(samp, 0.0);
  EXPECT_GT(db->stats().flushes.load(), 0u);
}

}  // namespace
}  // namespace lethe
