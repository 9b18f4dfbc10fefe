// MVCC and transaction tests (ctest label: "txn"): snapshot handles and
// ReadOptions::snapshot visibility across flushes and compactions, the
// snapshot-aware compaction drop rules (versions and tombstones pinned by
// live snapshots survive, and are reclaimed promptly after release), the
// FADE × snapshot interaction, iterator pinning against concurrent
// writers, and the OptimisticTransaction commit/conflict/rollback
// contract.
//
// The randomized visibility suite freezes one test::KeyModel copy per live
// snapshot and checks every snapshot read — point and scan — against it
// exactly, while flushes, compactions, range deletes, and secondary range
// deletes churn underneath. Secondary range deletes are applied to the
// frozen copies too: KiWi's in-place purge is physically destructive and
// documented as outside snapshot isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/txn.h"
#include "src/util/random.h"
#include "src/workload/generator.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using test::KeyModel;
using test::ModelOp;
using workload::EncodeKey;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_ = NewMemEnv();
    env_ = std::make_unique<IoCountingEnv>(base_env_.get(), 1024);
    clock_.SetMicros(1);

    options_.env = env_.get();
    options_.clock = &clock_;
    options_.write_buffer_bytes = 16 << 10;
    options_.target_file_bytes = 16 << 10;
    options_.size_ratio = 4;
    options_.table.page_size_bytes = 1024;
    options_.table.entries_per_page = 8;
    options_.table.pages_per_tile = 1;
    options_.table.bloom_bits_per_key = 10;
  }

  Status Reopen() {
    db_.reset();
    return DB::Open(options_, "txndb", &db_);
  }

  void Open() { ASSERT_TRUE(Reopen().ok()); }

  Status Put(uint64_t key, const std::string& value, uint64_t dk = 0) {
    clock_.AdvanceMicros(1);
    return db_->Put(WriteOptions(), EncodeKey(key), dk, value);
  }

  Status Delete(uint64_t key) {
    clock_.AdvanceMicros(1);
    return db_->Delete(WriteOptions(), EncodeKey(key));
  }

  std::string Get(uint64_t key, const Snapshot* snapshot = nullptr) {
    ReadOptions options;
    options.snapshot = snapshot;
    std::string value;
    Status s = db_->Get(options, EncodeKey(key), &value);
    if (s.IsNotFound()) {
      return "NOT_FOUND";
    }
    if (!s.ok()) {
      return "ERROR: " + s.ToString();
    }
    return value;
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<IoCountingEnv> env_;
  LogicalClock clock_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// ---- snapshot visibility ----------------------------------------------------

// A key's version chain straddles page — and, with one-page tiles, tile —
// boundaries once pinned snapshots force old versions to be retained
// through flush and compaction. A snapshot-bounded lookup must walk past
// the too-new versions into the following pages and tiles to reach its
// visible version (regression: the read used to give up at the end of the
// first tile whose fences contained the key).
TEST_F(TxnTest, SnapshotReadCrossesPageAndTileBoundary) {
  Open();
  ASSERT_TRUE(Put(36, "old").ok());
  const Snapshot* snap = db_->GetSnapshot();
  // 16 newer versions, each separated from its neighbor by a pinned
  // snapshot so every drop rule keeps the whole chain; with 8 entries per
  // page the chain spans three pages (= three tiles here).
  std::vector<const Snapshot*> pins;
  for (int i = 0; i < 16; i++) {
    pins.push_back(db_->GetSnapshot());
    ASSERT_TRUE(Put(36, "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ("old", Get(36, snap));
  EXPECT_EQ("v15", Get(36));
  for (const Snapshot* p : pins) {
    db_->ReleaseSnapshot(p);
  }
  db_->ReleaseSnapshot(snap);
}

// With multi-page delete tiles (KiWi), a tile's pages are ordered by
// delete key, so the two versions a snapshot forces into one file — the
// old value (small delete key) and the tombstone above it (clock-valued,
// larger) — land in *different pages* with the value's page first.
// Lookups must select the newest visible version across the tile's
// candidate pages (regression: the read used to return the first match in
// page order, resurrecting the deleted value on the live path).
TEST_F(TxnTest, KiwiTileLookupPicksNewestVersionAcrossPages) {
  options_.table.pages_per_tile = 4;
  Open();
  for (uint64_t k = 0; k < 16; k++) {
    ASSERT_TRUE(Put(k, "v1", /*dk=*/k).ok());
  }
  const Snapshot* snap = db_->GetSnapshot();
  clock_.AdvanceMicros(100);  // push tombstone delete keys past the values'
  for (uint64_t k = 0; k < 16; k += 2) {
    ASSERT_TRUE(Delete(k).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  for (uint64_t k = 0; k < 16; k++) {
    EXPECT_EQ("v1", Get(k, snap)) << k;
    EXPECT_EQ(k % 2 == 0 ? "NOT_FOUND" : "v1", Get(k)) << k;
  }
  db_->ReleaseSnapshot(snap);
  // The multi-version flag is part of the on-disk format: the same reads
  // must hold after recovery, when no snapshot exists to hint at it.
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 16; k++) {
    EXPECT_EQ(k % 2 == 0 ? "NOT_FOUND" : "v1", Get(k)) << k;
  }
}

// A compaction output must never be cut between two versions of one user
// key: a run's point-lookup routing probes exactly one file per key, so a
// chain straddling a file boundary hides its newer versions — here the
// final tombstone — from reads (regression: the size-triggered cut used to
// land anywhere, and the live read resurrected a pinned older version).
TEST_F(TxnTest, FileCutNeverSplitsVersionChain) {
  options_.target_file_bytes = 4 << 10;
  Open();
  const std::string filler(200, 'f');
  for (uint64_t k = 0; k < 20; k++) {
    ASSERT_TRUE(Put(k, filler).ok());
  }
  // A pinned chain on one key, long enough to straddle the cut point.
  std::vector<const Snapshot*> pins;
  for (int i = 0; i < 40; i++) {
    pins.push_back(db_->GetSnapshot());
    ASSERT_TRUE(Put(50, "v" + std::to_string(i)).ok());
  }
  pins.push_back(db_->GetSnapshot());
  ASSERT_TRUE(Delete(50).ok());
  ASSERT_TRUE(Put(60, "tail").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ("NOT_FOUND", Get(50));
  for (int i = 0; i < 40; i++) {
    EXPECT_EQ(i == 0 ? "NOT_FOUND" : "v" + std::to_string(i - 1),
              Get(50, pins[i]))
        << i;
  }
  EXPECT_EQ("v39", Get(50, pins[40]));
  EXPECT_EQ("tail", Get(60));
  for (const Snapshot* p : pins) {
    db_->ReleaseSnapshot(p);
  }
}

TEST_F(TxnTest, SnapshotFreezesPointReads) {
  Open();
  ASSERT_TRUE(Put(1, "v1").ok());
  ASSERT_TRUE(Put(2, "v2").ok());
  const Snapshot* snap = db_->GetSnapshot();

  ASSERT_TRUE(Put(1, "v1-new").ok());
  ASSERT_TRUE(Delete(2).ok());
  ASSERT_TRUE(Put(3, "v3").ok());

  // Default reads see the latest committed state.
  EXPECT_EQ(Get(1), "v1-new");
  EXPECT_EQ(Get(2), "NOT_FOUND");
  EXPECT_EQ(Get(3), "v3");
  // The snapshot sees exactly its frozen state, before and after a flush.
  EXPECT_EQ(Get(1, snap), "v1");
  EXPECT_EQ(Get(2, snap), "v2");
  EXPECT_EQ(Get(3, snap), "NOT_FOUND");
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(1, snap), "v1");
  EXPECT_EQ(Get(2, snap), "v2");
  EXPECT_EQ(Get(3, snap), "NOT_FOUND");

  db_->ReleaseSnapshot(snap);
}

TEST_F(TxnTest, SnapshotIgnoresLaterRangeDelete) {
  Open();
  for (uint64_t k = 0; k < 32; k++) {
    ASSERT_TRUE(Put(k, "r" + std::to_string(k)).ok());
  }
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(
      db_->RangeDelete(WriteOptions(), EncodeKey(8), EncodeKey(24)).ok());

  for (uint64_t k = 0; k < 32; k++) {
    EXPECT_EQ(Get(k, snap), "r" + std::to_string(k)) << k;
    if (k >= 8 && k < 24) {
      EXPECT_EQ(Get(k), "NOT_FOUND") << k;
    }
  }
  // The same holds once the range tombstone reaches disk and compacts.
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  for (uint64_t k = 0; k < 32; k++) {
    EXPECT_EQ(Get(k, snap), "r" + std::to_string(k)) << k;
  }
  db_->ReleaseSnapshot(snap);
}

// Regression for the headline hazard: a snapshot taken before a delete
// must still see the key after the delete's tombstone has been driven all
// the way to the bottom level. Without snapshot-aware drop rules,
// CompactAll would discard the pinned older version (or drop the tombstone
// and resurrect nothing for the snapshot to read).
TEST_F(TxnTest, SnapshotBeforeDeleteSurvivesCompactAll) {
  Open();
  ASSERT_TRUE(Put(7, "keep-me").ok());
  ASSERT_TRUE(db_->Flush().ok());
  const Snapshot* snap = db_->GetSnapshot();

  ASSERT_TRUE(Delete(7).ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  EXPECT_EQ(Get(7), "NOT_FOUND");
  EXPECT_EQ(Get(7, snap), "keep-me");

  // After release, the next full compaction reclaims both the tombstone
  // and the old version; latest-state reads are unchanged.
  db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(Get(7), "NOT_FOUND");
}

TEST_F(TxnTest, SnapshotIteratorScansFrozenState) {
  Open();
  KeyModel frozen(0, 64, test::ReproHint());
  for (uint64_t k = 0; k < 64; k += 2) {
    ASSERT_TRUE(
        frozen.Write(db_.get(), ModelOp::Put(k, 0, "s" + std::to_string(k)))
            .ok());
  }
  const Snapshot* snap = db_->GetSnapshot();

  // Churn everything after the snapshot: overwrites, new keys, deletes,
  // then a flush and full compaction.
  for (uint64_t k = 0; k < 64; k++) {
    if (k % 4 == 0) {
      ASSERT_TRUE(Delete(k).ok());
    } else {
      ASSERT_TRUE(Put(k, "post").ok());
    }
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  ReadOptions options;
  options.snapshot = snap;
  EXPECT_TRUE(frozen.CheckScan(db_.get(), 0, UINT64_MAX, KeyModel::kExact,
                               options));
  db_->ReleaseSnapshot(snap);
}

// Randomized interleaving of Put / Delete / RangeDelete /
// SecondaryRangeDelete / Flush / CompactAll with up to K live snapshots.
// Each snapshot carries a frozen copy of the live KeyModel; secondary range
// deletes are applied to the copies too (physically destructive, outside
// snapshot isolation). Every snapshot's full point-read sweep and iterator
// scan must match its model exactly at every step boundary.
TEST_F(TxnTest, RandomizedSnapshotVisibility) {
  constexpr uint64_t kKeys = 96;
  constexpr int kMaxSnapshots = 4;

  struct PinnedModel {
    const Snapshot* snap;
    KeyModel model;
  };

  // CI soaks scale the sweep the same way as the stress lanes.
  const int num_seeds = test::EnvInt("LETHE_TXN_SEEDS", 10);
  for (int seed = 1; seed <= num_seeds; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SetUp();  // fresh env/options per seed
    Open();
    Random rnd(static_cast<uint64_t>(seed) * 7919);
    KeyModel live(0, kKeys,
                  "seed=" + std::to_string(seed) + " (" +
                      test::ReproHint("LETHE_TXN_SEEDS", seed) + ")");
    std::vector<PinnedModel> pinned;
    // Delete keys live far above the clock-valued delete keys the engine
    // stamps on tombstones, so a random secondary-delete band can never
    // purge a tombstone (which would resurrect the version under it).
    constexpr uint64_t kDkBase = 1ull << 40;
    uint64_t next_dk = kDkBase;

    auto verify = [&](const PinnedModel& p) {
      ReadOptions options;
      options.snapshot = p.snap;
      ASSERT_TRUE(p.model.CheckAll(db_.get(), KeyModel::kExact, options))
          << "snapshot seq=" << p.snap->sequence();
    };
    auto write = [&](const ModelOp& op) {
      ASSERT_TRUE(live.Write(db_.get(), op).ok());
    };

    for (int step = 0; step < 400 && !HasFatalFailure(); step++) {
      clock_.AdvanceMicros(3);
      const double roll = rnd.NextDouble();
      const uint64_t k = rnd.Uniform(kKeys);
      if (roll < 0.40) {
        const uint64_t dk = next_dk++;
        write(ModelOp::Put(
            k, dk, "p" + std::to_string(seed) + "-" + std::to_string(step)));
      } else if (roll < 0.55) {
        write(ModelOp::Delete(k));
      } else if (roll < 0.63) {
        const uint64_t end = std::min(k + 1 + rnd.Uniform(12), kKeys);
        if (end <= k) {
          continue;
        }
        write(ModelOp::RangeDelete(k, end));
      } else if (roll < 0.68) {
        // Secondary range delete: destructive, so every frozen model loses
        // the purged delete-key band too. Bands are prefixes of the
        // (monotonic) delete-key space, as in the stress harness: a
        // mid-space band could purge a key's newest version while an older
        // duplicate with a smaller delete key survives and resurfaces —
        // correct KiWi behaviour, but unmodelable with one value per key.
        const uint64_t lo = kDkBase;
        const uint64_t hi = lo + 1 + rnd.Uniform(next_dk - kDkBase + 1);
        const ModelOp srd = ModelOp::SecondaryRangeDelete(lo, hi);
        write(srd);
        for (auto& p : pinned) {
          p.model.Apply(srd);
        }
      } else if (roll < 0.76) {
        const bool do_flush = rnd.Bernoulli(0.5);
        ASSERT_TRUE((do_flush ? db_->Flush() : db_->CompactAll()).ok());
      } else if (roll < 0.86 &&
                 pinned.size() < static_cast<size_t>(kMaxSnapshots)) {
        pinned.push_back({db_->GetSnapshot(), live});
      } else if (roll < 0.92 && !pinned.empty()) {
        const size_t victim = rnd.Uniform(pinned.size());
        db_->ReleaseSnapshot(pinned[victim].snap);
        pinned.erase(pinned.begin() + victim);
      } else if (!pinned.empty()) {
        verify(pinned[rnd.Uniform(pinned.size())]);
      }
    }

    // Final sweep: every surviving snapshot, then release them all.
    for (const auto& p : pinned) {
      verify(p);
    }
    for (const auto& p : pinned) {
      db_->ReleaseSnapshot(p.snap);
    }
    // With no snapshots pinned, a full compaction restores latest-state
    // reads exactly.
    ASSERT_TRUE(db_->CompactAll().ok());
    ASSERT_TRUE(live.CheckAll(db_.get())) << "after releasing every snapshot";
    db_.reset();
  }
}

// ---- FADE × snapshots -------------------------------------------------------

// A tombstone whose FADE persistence deadline has passed must still be
// retained while a snapshot older than it is live (dropping it would hide
// the delete's existence from reclamation but, worse, dropping the pinned
// older version would corrupt the snapshot's view). Once the snapshot is
// released, the next full compaction drops it promptly.
TEST_F(TxnTest, FadeTombstoneRetainedUntilSnapshotReleased) {
  options_.delete_persistence_threshold_micros = 1000;
  options_.file_picking = FilePickingPolicy::kMaxTombstones;
  Open();

  ASSERT_TRUE(Put(42, "doomed").ok());
  ASSERT_TRUE(db_->Flush().ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(Delete(42).ok());
  ASSERT_TRUE(db_->Flush().ok());

  // Sail far past the persistence deadline, then force full compactions.
  clock_.AdvanceMicros(10000);
  const uint64_t dropped_before = db_->stats().tombstones_dropped.load();
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());

  // The snapshot still reads the pre-delete value; the tombstone was not
  // counted dropped.
  EXPECT_EQ(Get(42, snap), "doomed");
  EXPECT_EQ(Get(42), "NOT_FOUND");
  EXPECT_EQ(db_->stats().tombstones_dropped.load(), dropped_before);

  db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_GT(db_->stats().tombstones_dropped.load(), dropped_before);
  EXPECT_EQ(Get(42), "NOT_FOUND");
}

// FADE resolves a tombstone's age through the seq→time checkpoints the
// manifest persists. The mapping must survive a reopen unchanged for
// sequences that snapshots (or transactions) may still pin.
TEST_F(TxnTest, SeqTimeCheckpointsStableAcrossReopen) {
  options_.delete_persistence_threshold_micros = 1000000;
  Open();

  std::vector<std::pair<SequenceNumber, uint64_t>> probes;
  for (int batch = 0; batch < 4; batch++) {
    for (uint64_t k = 0; k < 32; k++) {
      ASSERT_TRUE(Put(batch * 32 + k, std::string(64, 'f')).ok());
    }
    auto* impl = static_cast<DBImpl*>(db_.get());
    probes.emplace_back(impl->TEST_LastSequence(), 0);
    ASSERT_TRUE(db_->Flush().ok());  // flush writes a seq→time checkpoint
    clock_.AdvanceMicros(5000);
  }

  auto* impl = static_cast<DBImpl*>(db_.get());
  for (auto& [seq, time] : probes) {
    time = impl->TEST_TimeOfSeq(seq);
  }
  // Sanity: later batches resolve to later (or equal) times, and the last
  // probe lands after the first clock advance.
  EXPECT_GT(probes.back().second, probes.front().second);

  ASSERT_TRUE(Reopen().ok());
  impl = static_cast<DBImpl*>(db_.get());
  for (const auto& [seq, time] : probes) {
    EXPECT_EQ(impl->TEST_TimeOfSeq(seq), time) << "seq " << seq;
  }
}

// ---- iterator pinning under concurrent writers ------------------------------

// An open iterator is pinned to the sequence current at creation: writers
// committing afterwards must never leak into the scan. Four writer
// threads hammer their own key ranges with round-numbered values while
// the main thread opens iterators and slow-scans each one twice — the two
// passes over one iterator must be byte-identical, and no observed round
// may exceed what the writer had completed when the iterator was created
// (plus one in-flight put of slack).
TEST_F(TxnTest, IteratorPinnedAgainstConcurrentWriters) {
  Open();
  constexpr int kWriters = 4;
  constexpr uint64_t kKeysPerWriter = 16;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> puts_done[kWriters] = {};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      Random rnd(1000 + t);
      uint64_t round = 0;
      while (!stop.load(std::memory_order_acquire)) {
        round++;
        for (uint64_t i = 0; i < kKeysPerWriter; i++) {
          clock_.AdvanceMicros(1);
          const uint64_t k = t * kKeysPerWriter + i;
          Status s = db_->Put(WriteOptions(), EncodeKey(k), round,
                              "round-" + std::to_string(round));
          ASSERT_TRUE(s.ok()) << s.ToString();
          puts_done[t].fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  for (int scan = 0; scan < 25; scan++) {
    auto it = db_->NewIterator(ReadOptions());
    uint64_t done_at_create[kWriters];
    for (int t = 0; t < kWriters; t++) {
      done_at_create[t] = puts_done[t].load(std::memory_order_acquire);
    }

    std::vector<std::pair<std::string, std::string>> first_pass;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      first_pass.emplace_back(it->key().ToString(), it->value().ToString());
      std::this_thread::yield();  // let writers race the open scan
    }
    ASSERT_TRUE(it->status().ok());

    // No observed round may postdate the iterator: a put sequenced before
    // creation was at worst the writer's single in-flight op, so its
    // round is within one put of the creation-time completion count.
    for (const auto& [key, value] : first_pass) {
      ASSERT_EQ(value.rfind("round-", 0), 0u) << value;
      const uint64_t round = std::stoull(value.substr(6));
      // EncodeKey is order-preserving, so derive the owning writer by
      // comparing against range boundaries.
      int owner = -1;
      for (int t = kWriters - 1; t >= 0; t--) {
        if (key >= EncodeKey(t * kKeysPerWriter)) {
          owner = t;
          break;
        }
      }
      ASSERT_GE(owner, 0);
      const uint64_t max_round =
          (done_at_create[owner] + 1 + kKeysPerWriter - 1) / kKeysPerWriter +
          1;
      ASSERT_LE(round, max_round)
          << "scan " << scan << " key " << key << " saw round " << round
          << " but writer " << owner << " had only completed "
          << done_at_create[owner] << " puts at iterator creation";
    }

    // Second pass over the same iterator: the pinned view is immutable,
    // so the scan must reproduce byte-for-byte despite ongoing writes.
    std::vector<std::pair<std::string, std::string>> second_pass;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      second_pass.emplace_back(it->key().ToString(), it->value().ToString());
    }
    ASSERT_TRUE(it->status().ok());
    ASSERT_EQ(first_pass, second_pass)
        << "scan " << scan << ": concurrent writes leaked into an open "
        << "iterator";
  }

  stop.store(true, std::memory_order_release);
  for (auto& w : writers) {
    w.join();
  }
}

// ---- optimistic transactions ------------------------------------------------

TEST_F(TxnTest, TxnCommitAppliesAtomically) {
  Open();
  OptimisticTransaction txn(db_.get());
  ASSERT_TRUE(txn.Put(EncodeKey(1), 11, "a").ok());
  ASSERT_TRUE(txn.Put(EncodeKey(2), 22, "b").ok());

  // Staged writes are invisible outside the transaction until commit.
  EXPECT_EQ(Get(1), "NOT_FOUND");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Get(1), "a");
  EXPECT_EQ(Get(2), "b");
  EXPECT_GT(txn.commit_sequence(), 0u);
  EXPECT_EQ(db_->stats().txn_commits.load(), 1u);
  EXPECT_EQ(db_->stats().txn_conflicts.load(), 0u);
}

TEST_F(TxnTest, TxnReadWriteConflictReturnsBusy) {
  Open();
  ASSERT_TRUE(Put(5, "original").ok());

  OptimisticTransaction txn(db_.get());
  std::string value;
  ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(5), &value).ok());
  ASSERT_EQ(value, "original");

  // A committed write to a read key after the snapshot dooms the txn.
  ASSERT_TRUE(Put(5, "interloper").ok());
  ASSERT_TRUE(txn.Put(EncodeKey(5), 0, value + "+txn").ok());
  Status s = txn.Commit();
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(Get(5), "interloper");  // nothing from the aborted txn applied
  EXPECT_EQ(db_->stats().txn_conflicts.load(), 1u);
  EXPECT_EQ(db_->stats().txn_commits.load(), 0u);
}

TEST_F(TxnTest, TxnWriteWriteConflictFirstCommitterWins) {
  Open();
  OptimisticTransaction a(db_.get());
  OptimisticTransaction b(db_.get());
  ASSERT_TRUE(a.Put(EncodeKey(9), 0, "from-a").ok());
  ASSERT_TRUE(b.Put(EncodeKey(9), 0, "from-b").ok());

  ASSERT_TRUE(a.Commit().ok());
  Status s = b.Commit();
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(Get(9), "from-a");
}

TEST_F(TxnTest, TxnRollbackAndFailedCommitAreSideEffectFree) {
  Open();
  ASSERT_TRUE(Put(1, "base").ok());
  {
    OptimisticTransaction txn(db_.get());
    ASSERT_TRUE(txn.Put(EncodeKey(1), 0, "never").ok());
    ASSERT_TRUE(txn.Delete(EncodeKey(2)).ok());
    ASSERT_TRUE(txn.Rollback().ok());
  }
  {
    // Destroying an unfinished transaction must also leave no trace (and
    // release its snapshot, or DB close would assert).
    OptimisticTransaction txn(db_.get());
    ASSERT_TRUE(txn.Put(EncodeKey(1), 0, "never-either").ok());
  }
  EXPECT_EQ(Get(1), "base");
  EXPECT_EQ(db_->stats().txn_commits.load(), 0u);
}

TEST_F(TxnTest, TxnReadYourOwnWrites) {
  Open();
  ASSERT_TRUE(Put(1, "committed-1").ok());
  ASSERT_TRUE(Put(2, "committed-2").ok());
  ASSERT_TRUE(Put(3, "committed-3").ok());

  OptimisticTransaction txn(db_.get());
  ASSERT_TRUE(txn.Put(EncodeKey(2), 0, "staged-2").ok());
  ASSERT_TRUE(txn.Delete(EncodeKey(3)).ok());
  ASSERT_TRUE(txn.Put(EncodeKey(4), 0, "staged-4").ok());

  std::string value;
  ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(1), &value).ok());
  EXPECT_EQ(value, "committed-1");
  ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(2), &value).ok());
  EXPECT_EQ(value, "staged-2");
  EXPECT_TRUE(txn.Get(ReadOptions(), EncodeKey(3), &value).IsNotFound());
  ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(4), &value).ok());
  EXPECT_EQ(value, "staged-4");

  // The overlay iterator merges staged writes over the snapshot: staged
  // values replace committed ones, staged deletes hide them, staged
  // inserts appear in order.
  auto it = txn.NewIterator(ReadOptions());
  ASSERT_NE(it, nullptr);
  std::vector<std::pair<std::string, std::string>> got;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    got.emplace_back(it->key().ToString(), it->value().ToString());
  }
  std::vector<std::pair<std::string, std::string>> want = {
      {EncodeKey(1), "committed-1"},
      {EncodeKey(2), "staged-2"},
      {EncodeKey(4), "staged-4"},
  };
  EXPECT_EQ(got, want);
  ASSERT_TRUE(txn.Rollback().ok());
}

TEST_F(TxnTest, TxnReadOnlyCommitValidatesReads) {
  Open();
  ASSERT_TRUE(Put(1, "stable").ok());
  {
    // Untouched read set: commit succeeds without writing anything.
    OptimisticTransaction txn(db_.get());
    std::string value;
    ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(1), &value).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // A read-only transaction still aborts when a read key moved.
    OptimisticTransaction txn(db_.get());
    std::string value;
    ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(1), &value).ok());
    ASSERT_TRUE(Put(1, "moved").ok());
    EXPECT_TRUE(txn.Commit().IsBusy());
  }
}

TEST_F(TxnTest, TxnRangeDeleteBatchRejected) {
  Open();
  // WriteValidated guards the staging contract at the engine boundary:
  // range deletes cannot be validated per-key, so a batch carrying one is
  // refused outright.
  WriteBatch batch;
  batch.RangeDelete(EncodeKey(0), EncodeKey(10));
  SequenceNumber commit_seq = 0;
  auto* impl = static_cast<DBImpl*>(db_.get());
  Status s = impl->WriteValidated(WriteOptions(), &batch, /*read_seq=*/0, {},
                                  &commit_seq);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
}

TEST_F(TxnTest, TxnConflictGranularityIsPerKey) {
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  ASSERT_TRUE(Put(2, "two").ok());

  OptimisticTransaction txn(db_.get());
  std::string value;
  ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(1), &value).ok());
  // A concurrent write to an *unrelated* key must not abort the txn.
  ASSERT_TRUE(Put(2, "two-updated").ok());
  ASSERT_TRUE(txn.Put(EncodeKey(1), 0, value + "!").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Get(1), "one!");
  EXPECT_EQ(Get(2), "two-updated");
}

// Validation resolves each key through the point-lookup walk, including its
// range-tombstone arm: a range delete committed over a read key after the
// snapshot dooms the transaction, whether the tombstone is still buffered
// or already flushed into a table. The read key's own version sits on disk
// below the snapshot, so only the tombstone can raise the conflict. A range
// delete committed before the snapshot is no conflict.
TEST_F(TxnTest, TxnRangeDeleteOverReadKeyConflicts) {
  Open();
  for (const bool flushed : {false, true}) {
    SCOPED_TRACE(flushed ? "tombstone in a table" : "tombstone in memtable");
    const uint64_t read_key = flushed ? 20 : 10;
    const uint64_t control_key = read_key + 1;
    ASSERT_TRUE(Put(read_key, "v").ok());
    ASSERT_TRUE(Put(control_key, "v").ok());
    ASSERT_TRUE(db_->Flush().ok());
    const uint64_t conflicts = db_->stats().txn_conflicts.load();

    {
      OptimisticTransaction txn(db_.get());
      std::string value;
      ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(read_key), &value).ok());
      ASSERT_TRUE(db_->RangeDelete(WriteOptions(), EncodeKey(read_key),
                                   EncodeKey(read_key + 1))
                      .ok());
      if (flushed) {
        ASSERT_TRUE(db_->Flush().ok());
      }
      ASSERT_TRUE(txn.Put(EncodeKey(read_key + 100), 0, value).ok());
      Status s = txn.Commit();
      EXPECT_TRUE(s.IsBusy()) << s.ToString();
    }
    EXPECT_EQ(Get(read_key + 100), "NOT_FOUND");
    EXPECT_EQ(db_->stats().txn_conflicts.load(), conflicts + 1);

    // Control: the range delete commits before the snapshot is taken.
    ASSERT_TRUE(db_->RangeDelete(WriteOptions(), EncodeKey(control_key),
                                 EncodeKey(control_key + 1))
                    .ok());
    if (flushed) {
      ASSERT_TRUE(db_->Flush().ok());
    }
    OptimisticTransaction txn(db_.get());
    std::string value;
    ASSERT_TRUE(
        txn.Get(ReadOptions(), EncodeKey(control_key), &value).IsNotFound());
    ASSERT_TRUE(txn.Put(EncodeKey(control_key), 0, "recreated").ok());
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(Get(control_key), "recreated");
    EXPECT_EQ(db_->stats().txn_conflicts.load(), conflicts + 1);
  }
}

TEST_F(TxnTest, TxnSurvivesFlushCompactionAndReopen) {
  Open();
  for (uint64_t k = 0; k < 40; k++) {
    ASSERT_TRUE(Put(k, "seed-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());

  OptimisticTransaction txn(db_.get());
  std::string value;
  ASSERT_TRUE(txn.Get(ReadOptions(), EncodeKey(10), &value).ok());
  ASSERT_TRUE(txn.Put(EncodeKey(10), 0, value + "+1").ok());
  // Background reshaping between begin and commit is not a conflict.
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Get(10), "seed-10+1");

  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(Get(10), "seed-10+1");
}

}  // namespace
}  // namespace lethe
