// End-to-end tests of the lethe::DB engine: CRUD across flushes and
// compactions, range deletes, FADE delete-persistence guarantees,
// KiWi secondary range deletes, recovery, and failure injection.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/lsm/db_impl.h"
#include "src/util/crc32c.h"
#include "src/workload/generator.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using test::ForwardingEnv;
using test::KeyModel;
using test::ModelOp;
using workload::EncodeKey;

class DBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_ = NewMemEnv();
    env_ = std::make_unique<IoCountingEnv>(base_env_.get(), 1024);
    clock_.SetMicros(1);  // time 0 is "before everything"

    options_.env = env_.get();
    options_.clock = &clock_;
    options_.write_buffer_bytes = 16 << 10;  // 16 KB buffer
    options_.target_file_bytes = 16 << 10;
    options_.size_ratio = 4;
    options_.table.page_size_bytes = 1024;
    options_.table.entries_per_page = 8;
    options_.table.pages_per_tile = 1;
    options_.table.bloom_bits_per_key = 10;
  }

  Status Reopen() {
    db_.reset();
    return DB::Open(options_, "testdb", &db_);
  }

  void Open() { ASSERT_TRUE(Reopen().ok()); }

  Status Put(uint64_t key, const std::string& value, uint64_t dk = 0) {
    clock_.AdvanceMicros(1);
    return db_->Put(WriteOptions(), EncodeKey(key), dk, value);
  }

  std::string Get(uint64_t key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), EncodeKey(key), &value);
    if (s.IsNotFound()) {
      return "NOT_FOUND";
    }
    if (!s.ok()) {
      return "ERROR: " + s.ToString();
    }
    return value;
  }

  Status Delete(uint64_t key) {
    clock_.AdvanceMicros(1);
    return db_->Delete(WriteOptions(), EncodeKey(key));
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<IoCountingEnv> env_;
  LogicalClock clock_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, PutGetOverwrite) {
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  EXPECT_EQ(Get(1), "one");
  ASSERT_TRUE(Put(1, "uno").ok());
  EXPECT_EQ(Get(1), "uno");
  EXPECT_EQ(Get(2), "NOT_FOUND");
}

TEST_F(DBTest, GetWithDeleteKeyReturnsSecondaryKey) {
  Open();
  ASSERT_TRUE(Put(5, "five", 777).ok());
  std::string value;
  uint64_t dk = 0;
  ASSERT_TRUE(
      db_->GetWithDeleteKey(ReadOptions(), EncodeKey(5), &value, &dk).ok());
  EXPECT_EQ(value, "five");
  EXPECT_EQ(dk, 777u);
}

TEST_F(DBTest, DeleteHidesKey) {
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  ASSERT_TRUE(Delete(1).ok());
  EXPECT_EQ(Get(1), "NOT_FOUND");
  // Re-insert resurrects.
  ASSERT_TRUE(Put(1, "again").ok());
  EXPECT_EQ(Get(1), "again");
}

TEST_F(DBTest, ValuesSurviveFlush) {
  Open();
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(Put(k, "value-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_GT(test::ReferencedTableFiles(db_.get()), 0u);
  for (uint64_t k = 0; k < 100; k++) {
    EXPECT_EQ(Get(k), "value-" + std::to_string(k));
  }
}

TEST_F(DBTest, DeleteAcrossFlushBoundary) {
  Open();
  ASSERT_TRUE(Put(7, "seven").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Delete(7).ok());
  EXPECT_EQ(Get(7), "NOT_FOUND");  // tombstone in memtable, value on disk
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(7), "NOT_FOUND");  // both on disk
}

TEST_F(DBTest, ManyEntriesAcrossLevels) {
  Open();
  const uint64_t n = 3000;
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(Put(k * 37 % n, value + std::to_string(k * 37 % n)).ok());
  }
  auto snaps = db_->GetLevelSnapshots();
  EXPECT_GT(snaps.size(), 1u);  // tree has grown beyond one level
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k)) << "key " << k;
  }
}

TEST_F(DBTest, UpdatesKeepNewestAcrossCompactions) {
  Open();
  std::string value(100, 'v');
  for (int round = 0; round < 5; round++) {
    for (uint64_t k = 0; k < 500; k++) {
      ASSERT_TRUE(Put(k, value + "-" + std::to_string(round)).ok());
    }
  }
  for (uint64_t k = 0; k < 500; k++) {
    ASSERT_EQ(Get(k), value + "-4");
  }
}

TEST_F(DBTest, IteratorScansLiveEntriesInOrder) {
  Open();
  KeyModel model(0, 300, test::ReproHint());
  for (uint64_t k = 0; k < 300; k++) {
    ASSERT_TRUE(
        model.Write(db_.get(), ModelOp::Put(k, 0, "v" + std::to_string(k)))
            .ok());
  }
  for (uint64_t k = 0; k < 300; k += 3) {
    ASSERT_TRUE(model.Write(db_.get(), ModelOp::Delete(k)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_TRUE(model.CheckScan(db_.get(), 0, UINT64_MAX));
}

TEST_F(DBTest, IteratorSeekPositions) {
  Open();
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(Put(k, "v").ok());
  }
  auto it = db_->NewIterator(ReadOptions());
  it->Seek(Slice(EncodeKey(51)));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), EncodeKey(52));
  it->Seek(Slice(EncodeKey(99)));
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, RangeDeleteHidesRange) {
  Open();
  KeyModel model(0, 100, test::ReproHint());
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(
        model.Write(db_.get(), ModelOp::Put(k, 0, "v" + std::to_string(k)))
            .ok());
  }
  ASSERT_TRUE(model.Write(db_.get(), ModelOp::RangeDelete(20, 40)).ok());
  EXPECT_TRUE(model.CheckAll(db_.get()));
  // Still hidden after everything reaches disk.
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_TRUE(model.CheckAll(db_.get()));

  // Writes after the range delete win.
  ASSERT_TRUE(model.Write(db_.get(), ModelOp::Put(25, 0, "resurrected")).ok());
  EXPECT_TRUE(model.CheckAll(db_.get()));
}

TEST_F(DBTest, RangeDeleteAppliesAcrossCompaction) {
  Open();
  KeyModel model(0, 1000, test::ReproHint());
  std::string value(100, 'x');
  for (uint64_t k = 0; k < 1000; k++) {
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(model.Write(db_.get(), ModelOp::Put(k, 0, value)).ok());
  }
  ASSERT_TRUE(model.Write(db_.get(), ModelOp::RangeDelete(100, 300)).ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_TRUE(model.CheckAll(db_.get()));
  // After a full compaction the range tombstone itself is persisted away.
  uint64_t range_tombstones = 0;
  for (const auto& snap : db_->GetLevelSnapshots()) {
    range_tombstones += snap.num_range_tombstones;
  }
  EXPECT_EQ(range_tombstones, 0u);
}

TEST_F(DBTest, EmptyRangeDeleteRejected) {
  Open();
  EXPECT_TRUE(db_->RangeDelete(WriteOptions(), EncodeKey(5), EncodeKey(5))
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->SecondaryRangeDelete(WriteOptions(), 9, 9)
                  .IsInvalidArgument());
}

TEST_F(DBTest, CompactAllPersistsTombstones) {
  Open();
  for (uint64_t k = 0; k < 200; k++) {
    ASSERT_TRUE(Put(k, "v").ok());
  }
  for (uint64_t k = 0; k < 200; k += 2) {
    ASSERT_TRUE(Delete(k).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  uint64_t tombstones = 0;
  for (const auto& snap : db_->GetLevelSnapshots()) {
    tombstones += snap.num_point_tombstones;
  }
  EXPECT_EQ(tombstones, 0u);  // all deletes are persistent
  EXPECT_GT(db_->stats().tombstones_dropped.load(), 0u);
  for (uint64_t k = 0; k < 200; k++) {
    EXPECT_EQ(Get(k), k % 2 == 0 ? "NOT_FOUND" : "v");
  }
}

TEST_F(DBTest, SpaceAmplificationDropsAfterCompactAll) {
  Open();
  std::string value(100, 'x');
  for (int round = 0; round < 4; round++) {
    for (uint64_t k = 0; k < 400; k++) {
      ASSERT_TRUE(Put(k, value).ok());
    }
  }
  double samp_before = 0, samp_after = 0;
  ASSERT_TRUE(db_->ComputeSpaceAmplification(&samp_before).ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->ComputeSpaceAmplification(&samp_after).ok());
  EXPECT_LE(samp_after, samp_before);
  EXPECT_NEAR(samp_after, 0.0, 0.01);
}

// ---------------------------------------------------------------------------
// FADE.

TEST_F(DBTest, FadeBoundsTombstoneAges) {
  const uint64_t dth = 200000;  // 0.2s of logical time
  options_.delete_persistence_threshold_micros = dth;
  options_.file_picking = FilePickingPolicy::kMaxTombstones;
  Open();

  std::string value(100, 'x');
  Random rnd(7);
  for (uint64_t i = 0; i < 8000; i++) {
    uint64_t k = rnd.Uniform(2000);
    if (i % 10 == 3) {
      ASSERT_TRUE(Delete(k).ok());
    } else {
      ASSERT_TRUE(Put(k, value).ok());
    }
    clock_.AdvanceMicros(50);  // ingestion drives time
    if (i % 200 == 0) {
      for (const auto& sample : db_->GetTombstoneAges()) {
        EXPECT_LE(sample.age_micros, dth)
            << "tombstone violated Dth at op " << i << " (level "
            << sample.level << ")";
      }
    }
  }
  EXPECT_GT(db_->stats().compactions_ttl_triggered.load(), 0u);
}

// FADE skips a bottommost file whose tombstones the oldest snapshot pins.
// Releasing that snapshot re-arms the trigger on an idle database: the
// overdue tombstone goes with no later write or drain. Only a poll waits.
TEST_F(DBTest, ReleaseSnapshotRearmsFadeOnAnIdleDb) {
  options_.delete_persistence_threshold_micros = 1000;
  Open();
  ASSERT_TRUE(Put(42, "doomed").ok());
  ASSERT_TRUE(db_->Flush().ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Delete(WriteOptions(), EncodeKey(42)).ok());
  ASSERT_TRUE(db_->Flush().ok());
  clock_.AdvanceMicros(10000);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  ASSERT_EQ(db_->stats().tombstones_dropped.load(), 0u);

  db_->ReleaseSnapshot(snap);
  EXPECT_TRUE(test::WaitFor(
      [&] { return db_->stats().tombstones_dropped.load() > 0; }, 10000));
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_EQ(Get(42), "NOT_FOUND");
}

TEST_F(DBTest, StateOfArtRetainsOldTombstones) {
  // Without FADE, tombstones can outlive any threshold. Build a tree with
  // multiple levels first so flushed tombstones are not instantly
  // persistable (a bottommost merge legitimately drops them).
  Open();
  std::string value(100, 'x');
  for (uint64_t k = 0; k < 2000; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  ASSERT_GE(db_->GetLevelSnapshots().size(), 2u);
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(Delete(k).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  clock_.AdvanceMicros(10000000);  // 10 virtual seconds pass, no writes
  ASSERT_TRUE(Put(9999, value).ok());

  bool found_old = false;
  for (const auto& sample : db_->GetTombstoneAges()) {
    if (sample.age_micros >= 10000000) {
      found_old = true;
    }
  }
  EXPECT_TRUE(found_old);
  EXPECT_EQ(db_->stats().compactions_ttl_triggered.load(), 0u);
}

TEST_F(DBTest, BlindDeleteFilterSkipsAbsentKeys) {
  options_.filter_blind_deletes = true;
  Open();
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(Put(k, "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // Deletes on keys that never existed are filtered.
  for (uint64_t k = 100000; k < 100050; k++) {
    ASSERT_TRUE(Delete(k).ok());
  }
  EXPECT_GE(db_->stats().blind_deletes_avoided.load(), 45u);
  // Deletes on real keys still work.
  ASSERT_TRUE(Delete(5).ok());
  EXPECT_EQ(Get(5), "NOT_FOUND");
  // A second delete of the same (now dead) key is also blind.
  uint64_t avoided = db_->stats().blind_deletes_avoided.load();
  ASSERT_TRUE(Delete(5).ok());
  EXPECT_GT(db_->stats().blind_deletes_avoided.load(), avoided);
}

// ---------------------------------------------------------------------------
// Expiry at merge time (WriteBatch::PutExpiring).

class ExpiryTest : public DBTest {
 protected:
  // The expiring key sorts below every filler key, so the one file whose
  // smallest key is at or below it holds it.
  static constexpr uint64_t kKey = 0;
  static constexpr int kBottommost = -1;

  Status PutExpiring(uint64_t key, const std::string& value,
                     uint64_t deadline) {
    clock_.AdvanceMicros(1);
    WriteBatch batch;
    batch.PutExpiring(EncodeKey(key), deadline, value);
    return db_->Write(WriteOptions(), &batch);
  }

  /// A fresh database on a fresh Env.
  void Recreate() {
    db_.reset();
    base_env_ = NewMemEnv();
    env_ = std::make_unique<IoCountingEnv>(base_env_.get(), 1024);
    options_.env = env_.get();
    next_filler_ = 1;
    Open();
  }

  /// Ascending puts of filler keys above kKey.
  void Fill(uint64_t n) {
    const std::string value(100, 'f');
    for (uint64_t i = 0; i < n; i++) {
      ASSERT_TRUE(Put(next_filler_++, value).ok());
    }
  }

  /// The level of the file holding kKey, or -1.
  int LevelOfKey() {
    auto* impl = static_cast<DBImpl*>(db_.get());
    const int levels = static_cast<int>(db_->GetLevelSnapshots().size());
    for (int level = 0; level < levels; level++) {
      for (const FileMeta& f : impl->TEST_LevelFiles(level)) {
        if (Slice(f.smallest_key).compare(Slice(EncodeKey(kKey))) <= 0) {
          return level;
        }
      }
    }
    return -1;
  }

  int DeepestLevel() {
    int deepest = -1;
    for (const LevelSnapshot& l : db_->GetLevelSnapshots()) {
      if (l.num_files > 0) deepest = l.level - 1;  // rows count from 1
    }
    return deepest;
  }

  /// Writes kKey = "v" and pushes it down with filler: into the deepest of
  /// at least three levels for kBottommost, else into `level` of a tree
  /// already three levels deep.
  void PlaceValueAt(int level) {
    if (level != kBottommost) {
      Fill(3000);
      ASSERT_GE(DeepestLevel(), 2);
    }
    ASSERT_TRUE(Put(kKey, "v").ok());
    auto placed = [&] {
      return level == kBottommost
                 ? LevelOfKey() >= 2 && LevelOfKey() == DeepestLevel()
                 : LevelOfKey() == level;
    };
    for (int i = 0; i < 20000 && !placed(); i++) {
      Fill(1);
    }
    ASSERT_TRUE(placed()) << "at " << LevelOfKey() << " of " << DeepestLevel();
    if (level != kBottommost) {
      ASSERT_GT(DeepestLevel(), level);
    }
  }

  uint64_t next_filler_ = 1;
};

// An expired value becomes a tombstone at its own sequence, so the older
// TTL-free version below it stays shadowed wherever that version sits: in
// the same L0 run, at a middle level, or at the bottommost level. Dropping
// the expired value outright would bring "v" back in the last two cases.
TEST_F(ExpiryTest, ExpiredValueNeverResurrectsAnOlderOne) {
  for (int level : {0, 1, kBottommost}) {
    SCOPED_TRACE("v at level " + std::to_string(level));
    Recreate();
    PlaceValueAt(level);
    if (HasFatalFailure()) return;
    const uint64_t deadline = clock_.NowMicros() + 1000;
    ASSERT_TRUE(PutExpiring(kKey, "v2", deadline).ok());
    EXPECT_EQ(Get(kKey), "v2");  // reads do not filter by deadline
    clock_.AdvanceMicros(2000);

    // The flush past the deadline writes the tombstone into L0, counted as
    // a delete inserted at the flush's clock.
    ASSERT_TRUE(db_->Flush().ok());
    EXPECT_EQ(Get(kKey), "NOT_FOUND");
    EXPECT_EQ(db_->stats().net_keys_expired_active.load(), 1u);
    const std::vector<FileMeta> l0 =
        static_cast<DBImpl*>(db_.get())->TEST_LevelFiles(0);
    ASSERT_FALSE(l0.empty());
    EXPECT_EQ(l0.front().num_point_tombstones, 1u);
    EXPECT_EQ(l0.front().oldest_tombstone_time, clock_.NowMicros());

    ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
    EXPECT_EQ(Get(kKey), "NOT_FOUND");
    ASSERT_TRUE(db_->CompactAll().ok());
    EXPECT_EQ(Get(kKey), "NOT_FOUND");
    EXPECT_EQ(LevelOfKey(), -1);  // the bottommost merge dropped it all
    ASSERT_TRUE(Reopen().ok());
    EXPECT_EQ(Get(kKey), "NOT_FOUND");
  }
}

// A snapshot taken before the deadline may read the expiring value after
// it, and merges keep that version (never the older one) for it. A
// snapshot taken after the deadline keeps nothing: once the early one is
// released, the next merge expires the value under the late one too.
TEST_F(ExpiryTest, SnapshotKeepsReadingTheExpiringValue) {
  Recreate();
  PlaceValueAt(1);
  if (HasFatalFailure()) return;
  const uint64_t deadline = clock_.NowMicros() + 1000;
  ASSERT_TRUE(PutExpiring(kKey, "v2", deadline).ok());
  const Snapshot* snap = db_->GetSnapshot();
  clock_.AdvanceMicros(2000);
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, EncodeKey(kKey), &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(db_->stats().net_keys_expired_active.load(), 0u);

  const Snapshot* late = db_->GetSnapshot();
  db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(Get(kKey), "NOT_FOUND");
  at_snap.snapshot = late;
  EXPECT_TRUE(db_->Get(at_snap, EncodeKey(kKey), &value).IsNotFound());
  EXPECT_EQ(db_->stats().net_keys_expired_active.load(), 1u);
  db_->ReleaseSnapshot(late);
}

// Repair re-adopts tables and salvages WALs with the expiring kind intact:
// both the flushed value and the logged one expire at the next merges.
TEST_F(ExpiryTest, RepairKeepsTheExpiringKind) {
  Recreate();
  Fill(100);
  const uint64_t deadline = clock_.NowMicros() + 1000;
  ASSERT_TRUE(PutExpiring(kKey, "on-disk", deadline).ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(PutExpiring(next_filler_, "logged", deadline).ok());
  db_.reset();
  ASSERT_TRUE(DB::Repair(options_, "testdb").ok());
  Open();
  EXPECT_EQ(Get(kKey), "on-disk");
  EXPECT_EQ(Get(next_filler_), "logged");

  clock_.AdvanceMicros(2000);
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(Get(kKey), "NOT_FOUND");
  EXPECT_EQ(Get(next_filler_), "NOT_FOUND");
  EXPECT_EQ(Get(1), std::string(100, 'f'));
  EXPECT_EQ(db_->stats().net_keys_expired_active.load(), 2u);
}

// The expiry due time is MANIFEST state. Repair, rebuilding a lost
// MANIFEST from the tables alone, recomputes it from each table's entries,
// so a table of expiring values is still purged when they fall due, on an
// idle database with no other merge to carry them.
TEST_F(ExpiryTest, RepairRecoversTheDueTime) {
  Recreate();
  const uint64_t deadline = clock_.NowMicros() + 1000;
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(PutExpiring(k, std::string(100, 'e'), deadline).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto files = [&] {
    std::vector<FileMeta> all;
    auto* impl = static_cast<DBImpl*>(db_.get());
    const int levels = static_cast<int>(db_->GetLevelSnapshots().size());
    for (int level = 0; level < levels; level++) {
      for (const FileMeta& f : impl->TEST_LevelFiles(level)) {
        all.push_back(f);
      }
    }
    return all;
  };
  ASSERT_EQ(files().size(), 1u);
  ASSERT_EQ(files()[0].expiry_due, deadline);

  db_.reset();
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("testdb", &children).ok());
  for (const std::string& child : children) {
    if (child.rfind("MANIFEST", 0) == 0 || child == "CURRENT") {
      ASSERT_TRUE(env_->RemoveFile("testdb/" + child).ok());
    }
  }
  ASSERT_TRUE(DB::Repair(options_, "testdb").ok());
  Open();
  ASSERT_EQ(files().size(), 1u);
  EXPECT_EQ(files()[0].expiry_due, deadline);
  EXPECT_EQ(Get(0), std::string(100, 'e'));

  clock_.AdvanceMicros(2000);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_TRUE(files().empty());
  EXPECT_EQ(Get(0), "NOT_FOUND");
  EXPECT_EQ(Get(49), "NOT_FOUND");
}

// Each shard's merges expire the values routed to it, and the WAL carries
// the expiring kind through a reopen.
TEST_F(ExpiryTest, ShardedDBExpiresAtMerge) {
  options_.num_shards = 2;
  Recreate();
  Fill(3000);
  ASSERT_TRUE(Put(kKey, "v").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  const uint64_t deadline = clock_.NowMicros() + 1000;
  ASSERT_TRUE(PutExpiring(kKey, "v2", deadline).ok());
  ASSERT_TRUE(PutExpiring(kKey + 1, "w", deadline).ok());
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(Get(kKey), "v2");
  clock_.AdvanceMicros(2000);

  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(Get(kKey), "NOT_FOUND");
  EXPECT_EQ(Get(kKey + 1), "NOT_FOUND");
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(Get(kKey), "NOT_FOUND");
  EXPECT_EQ(Get(kKey + 1), "NOT_FOUND");
  EXPECT_EQ(Get(2), std::string(100, 'f'));
  EXPECT_EQ(db_->stats().net_keys_expired_active.load(), 2u);
}

// ---- purge by deadline (FileMeta::expiry_due) ----

// A file whose values all expire is purged once its deadline passes, with
// no write to schedule the merge: the rewrite in place at the bottommost
// level drops every value and writes nothing.
TEST_F(ExpiryTest, DueBottommostFileIsPurgedWithoutWrites) {
  Recreate();
  const uint64_t deadline = clock_.NowMicros() + 1000;
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(PutExpiring(k, std::string(100, 'e'), deadline).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  ASSERT_EQ(impl->TEST_LevelFiles(0).size(), 1u);
  EXPECT_EQ(impl->TEST_LevelFiles(0)[0].expiry_due, deadline);

  // Not yet due: the drain leaves the file alone.
  clock_.SetMicros(deadline);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  ASSERT_EQ(impl->TEST_LevelFiles(0).size(), 1u);

  clock_.AdvanceMicros(1);
  const uint64_t written = db_->stats().compaction_bytes_written.load();
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_TRUE(impl->TEST_LevelFiles(0).empty());
  EXPECT_EQ(DeepestLevel(), -1);
  EXPECT_EQ(db_->stats().compaction_bytes_written.load(), written);
  EXPECT_EQ(db_->stats().compactions_ttl_triggered.load(), 1u);
  EXPECT_EQ(db_->stats().net_keys_expired_active.load(), 50u);
  EXPECT_EQ(Get(0), "NOT_FOUND");
}

// A file is due once half of its entry bytes have expired: before that a
// drain leaves it (and its neighbour) alone; after it, the file alone is
// rewritten and keeps its plain values.
TEST_F(ExpiryTest, MixedFileIsRewrittenAloneOnceHalfExpired) {
  Recreate();
  const uint64_t early = clock_.NowMicros() + 1000;
  const uint64_t late = early + 1000;
  const std::string value(100, 'x');
  // 50 same-size entries: keys 0..49, every fifth expiring early (20%),
  // every fifth + 1 and + 2 expiring late (40%), the rest plain.
  for (uint64_t k = 0; k < 50; k++) {
    switch (k % 5) {
      case 0:
        ASSERT_TRUE(PutExpiring(k, value, early).ok());
        break;
      case 1:
      case 2:
        ASSERT_TRUE(PutExpiring(k, value, late).ok());
        break;
      default:
        ASSERT_TRUE(Put(k, value).ok());
    }
  }
  ASSERT_TRUE(db_->Flush().ok());
  // A disjoint neighbour in L0, flushed on its own.
  for (uint64_t k = 1000; k < 1025; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  std::vector<FileMeta> l0 = impl->TEST_LevelFiles(0);
  ASSERT_EQ(l0.size(), 2u);
  EXPECT_EQ(l0[0].expiry_due, late);  // 20% by early, 60% by late
  EXPECT_EQ(l0[1].expiry_due, FileMeta::kNever);

  clock_.SetMicros(early + 1);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  std::vector<FileMeta> after = impl->TEST_LevelFiles(0);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].file_number, l0[0].file_number);
  EXPECT_EQ(db_->stats().compactions.load(), 0u);

  clock_.SetMicros(late + 1);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  after = impl->TEST_LevelFiles(0);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_NE(after[0].file_number, l0[0].file_number);
  EXPECT_EQ(after[0].num_entries, 20u);
  EXPECT_EQ(after[0].expiry_due, FileMeta::kNever);
  EXPECT_EQ(after[1].file_number, l0[1].file_number);
  EXPECT_EQ(db_->stats().compactions.load(), 1u);
  for (uint64_t k = 0; k < 50; k++) {
    EXPECT_EQ(Get(k), k % 5 < 3 ? "NOT_FOUND" : value) << k;
  }
}

// A snapshot taken before the deadline can still read the values, so the
// due file is not picked while it lives (a pick could purge nothing and
// would fire again at once); the drain after its release purges the file.
TEST_F(ExpiryTest, SnapshotDefersThePurgeUntilReleased) {
  Recreate();
  const uint64_t deadline = clock_.NowMicros() + 1000;
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(PutExpiring(k, std::string(100, 'e'), deadline).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  const Snapshot* snap = db_->GetSnapshot();
  clock_.AdvanceMicros(2000);

  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_LE(db_->stats().compactions.load(), 1u);
  auto* impl = static_cast<DBImpl*>(db_.get());
  EXPECT_EQ(impl->TEST_LevelFiles(0).size(), 1u);
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, EncodeKey(0), &value).ok());

  db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_TRUE(impl->TEST_LevelFiles(0).empty());
  EXPECT_EQ(Get(0), "NOT_FOUND");
}

// Releasing the snapshot that blocked a past-due file re-arms the purge by
// itself: an idle database, with no commit or drain to come, still drops
// the file. Only a poll waits here, so nothing but the release schedules.
TEST_F(ExpiryTest, ReleaseSnapshotRearmsThePurgeOnAnIdleDb) {
  Recreate();
  const uint64_t deadline = clock_.NowMicros() + 1000;
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(PutExpiring(k, std::string(100, 'e'), deadline).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  const Snapshot* snap = db_->GetSnapshot();
  clock_.AdvanceMicros(2000);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  ASSERT_EQ(impl->TEST_LevelFiles(0).size(), 1u);

  db_->ReleaseSnapshot(snap);
  EXPECT_TRUE(
      test::WaitFor([&] { return impl->TEST_LevelFiles(0).empty(); }, 10000));
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_EQ(Get(0), "NOT_FOUND");
}

// The due time is MANIFEST state: a reopened database still purges the
// file when it falls due.
TEST_F(ExpiryTest, DueTimeSurvivesReopen) {
  Recreate();
  Fill(20);
  const uint64_t deadline = clock_.NowMicros() + 1000;
  for (uint64_t k = 0; k < 5; k++) {
    ASSERT_TRUE(PutExpiring(1000 + k, std::string(500, 'e'), deadline).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto due_times = [&] {
    std::vector<uint64_t> due;
    for (const FileMeta& f :
         static_cast<DBImpl*>(db_.get())->TEST_LevelFiles(0)) {
      due.push_back(f.expiry_due);
    }
    return due;
  };
  ASSERT_EQ(due_times(), std::vector<uint64_t>{deadline});

  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(due_times(), std::vector<uint64_t>{deadline});
  ASSERT_TRUE(Reopen().ok());  // the reopened MANIFEST carries it too
  EXPECT_EQ(due_times(), std::vector<uint64_t>{deadline});

  clock_.AdvanceMicros(2000);
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_EQ(due_times(), std::vector<uint64_t>{FileMeta::kNever});
  EXPECT_EQ(Get(1000), "NOT_FOUND");
  EXPECT_EQ(Get(1), std::string(100, 'f'));
}

// The default TableOptions fill each page to its byte budget. A fixed
// B = 4 stored 100-byte values at ~9x their size, one page per 4 entries.
TEST(DefaultLayoutTest, TableBytesStayNearUserBytes) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "paddb", &db).ok());
  const std::string value(100, 'v');
  const uint64_t n = 10000;
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  uint64_t table_bytes = 0, entries = 0, pages = 0;
  for (const LevelSnapshot& level : db->GetLevelSnapshots()) {
    table_bytes += level.bytes;
    entries += level.num_entries;
    pages += level.num_pages;
  }
  const uint64_t user_bytes = n * (EncodeKey(0).size() + value.size());
  EXPECT_EQ(entries, n);
  EXPECT_GT(pages, 100u);
  EXPECT_LT(table_bytes, user_bytes * 3 / 2)
      << table_bytes << " table bytes for " << user_bytes << " user bytes";
}

// ---------------------------------------------------------------------------
// KiWi secondary range deletes.

class KiwiTest : public DBTest {
 protected:
  void SetUp() override {
    DBTest::SetUp();
    options_.table.pages_per_tile = 4;
    Open();
  }

  /// Loads n keys whose delete key equals the key index (so delete-key
  /// ranges map to key index ranges).
  void LoadSequentialDeleteKeys(uint64_t n) {
    std::string value(100, 'x');
    for (uint64_t k = 0; k < n; k++) {
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(
          model_.Write(db_.get(), ModelOp::Put(k, k, value + std::to_string(k)))
              .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  /// Secondary range delete through the model.
  void SecondaryRangeDelete(uint64_t lo, uint64_t hi) {
    ASSERT_TRUE(
        model_.Write(db_.get(), ModelOp::SecondaryRangeDelete(lo, hi)).ok());
  }

  KeyModel model_{0, 4000, test::ReproHint()};
};

TEST_F(KiwiTest, SecondaryRangeDeleteRemovesExactlyTheRange) {
  LoadSequentialDeleteKeys(2000);
  SecondaryRangeDelete(500, 1500);

  // Full scan: nothing with delete key in [500, 1500) remains.
  EXPECT_TRUE(model_.CheckScan(db_.get(), 0, UINT64_MAX));
  EXPECT_GT(db_->stats().full_page_drops.load(), 0u);
  EXPECT_EQ(db_->stats().entries_purged_by_srd.load(), 1000u);
}

TEST_F(KiwiTest, FullPageDropsDoNotReadPages) {
  LoadSequentialDeleteKeys(4000);
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());

  // Warm the table cache (opening a reader costs metadata I/O that is not
  // part of the secondary delete itself).
  {
    auto warm = db_->NewIterator(ReadOptions());
    for (warm->SeekToFirst(); warm->Valid(); warm->Next()) {
    }
  }

  uint64_t reads_before = env_->stats().pages_read.load();
  ASSERT_TRUE(db_->SecondaryRangeDelete(WriteOptions(), 0, 4000).ok());
  uint64_t reads = env_->stats().pages_read.load() - reads_before;

  // Deleting everything should drop nearly every page without reading it;
  // only boundary pages (0-1 per tile) may be read.
  uint64_t full = db_->stats().full_page_drops.load();
  uint64_t partial = db_->stats().partial_page_drops.load();
  EXPECT_GT(full, 0u);
  EXPECT_LE(reads, partial + 2);

  auto it = db_->NewIterator(ReadOptions());
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());  // database is empty
}

TEST_F(KiwiTest, PartialPagesRewrittenInPlace) {
  LoadSequentialDeleteKeys(512);
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  // A narrow range inside one page forces a partial drop.
  SecondaryRangeDelete(10, 12);
  EXPECT_GT(db_->stats().partial_page_drops.load(), 0u);
  EXPECT_TRUE(model_.CheckScan(db_.get(), 0, UINT64_MAX));
}

// A secondary range delete rewrites partially covered pages in place by
// copying each kept entry's bytes. The table bytes after the rewrite are
// pinned (size and crc32c of the prefix-compressed pages, equal when kept
// entries are decoded and re-encoded instead), over mixed value sizes,
// point tombstones and empty values, so copying may never change a byte of
// a rewritten page.
TEST_F(DBTest, SecondaryDeleteRewriteBytesArePinned) {
  options_.write_buffer_bytes = 1 << 20;  // one flush, one table
  options_.table.pages_per_tile = 4;
  Open();
  for (uint64_t k = 0; k < 600; k++) {
    clock_.AdvanceMicros(1);
    if (k % 9 == 4) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), EncodeKey(k)).ok());
      continue;
    }
    const std::string value =
        k % 11 == 5
            ? std::string()
            : std::string(1 + (k * 37) % 90, static_cast<char>('a' + k % 26));
    ASSERT_TRUE(Put(k, value, (k * 7919) % 1000).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->SecondaryRangeDelete(WriteOptions(), 200, 450).ok());
  EXPECT_GT(db_->stats().partial_page_drops.load(), 0u);

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("testdb", &children).ok());
  std::sort(children.begin(), children.end());
  std::string tables;
  for (const std::string& child : children) {
    if (child.size() > 4 && child.compare(child.size() - 4, 4, ".sst") == 0) {
      std::string bytes;
      ASSERT_TRUE(
          ReadFileToString(env_.get(), "testdb/" + child, &bytes).ok());
      tables += bytes;
    }
  }
  EXPECT_EQ(tables.size(), 73717u);
  EXPECT_EQ(crc32c::Value(tables.data(), tables.size()), 0x1846c114u);
}

TEST_F(KiwiTest, SecondaryDeleteAlsoPurgesMemtable) {
  std::string value(50, 'm');
  for (uint64_t k = 0; k < 20; k++) {  // stays in memtable
    ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Put(k, k, value)).ok());
  }
  SecondaryRangeDelete(5, 15);
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

TEST_F(KiwiTest, PointLookupsCorrectAfterSecondaryDelete) {
  LoadSequentialDeleteKeys(1000);
  SecondaryRangeDelete(200, 800);
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

TEST_F(KiwiTest, SurvivesCompactionAfterSecondaryDelete) {
  LoadSequentialDeleteKeys(2000);
  SecondaryRangeDelete(0, 1000);
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_TRUE(model_.CheckScan(db_.get(), 0, UINT64_MAX));
}

// The delete fences skip every page whose delete keys miss the range and
// drop the covered pages unread, so a narrow secondary range delete reads
// only the pages straddling its bounds.
TEST_F(KiwiTest, SecondaryRangeDeletePrunesWithDeleteFences) {
  LoadSequentialDeleteKeys(4000);
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  {  // warm the table cache
    auto warm = db_->NewIterator(ReadOptions());
    for (warm->SeekToFirst(); warm->Valid(); warm->Next()) {
    }
  }

  const uint64_t reads_before = env_->stats().pages_read.load();
  SecondaryRangeDelete(1000, 1100);
  const uint64_t reads = env_->stats().pages_read.load() - reads_before;
  EXPECT_EQ(db_->stats().entries_purged_by_srd.load(), 100u);
  // At most the two pages holding the range's bounds; a delete that read
  // every page would read ~all of the tree's ~500.
  EXPECT_LE(reads, 2u) << reads << " pages read";
  EXPECT_TRUE(model_.CheckScan(db_.get(), 0, UINT64_MAX));
}

// ---------------------------------------------------------------------------
// Recovery.

TEST_F(DBTest, RecoversFromWal) {
  options_.enable_wal = true;
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  ASSERT_TRUE(Put(2, "two").ok());
  ASSERT_TRUE(Delete(1).ok());
  // No flush: state lives only in WAL + memtable. Reopen simulates a crash
  // (the old DB object is destroyed without flushing).
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(Get(1), "NOT_FOUND");
  EXPECT_EQ(Get(2), "two");
}

TEST_F(DBTest, RecoversManifestState) {
  Open();
  std::string value(100, 'x');
  for (uint64_t k = 0; k < 1000; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 1000; k++) {
    ASSERT_EQ(Get(k), value) << k;
  }
}

TEST_F(DBTest, RecoversSecondaryDeleteState) {
  options_.table.pages_per_tile = 4;
  Open();
  std::string value(100, 'x');
  for (uint64_t k = 0; k < 1000; k++) {
    ASSERT_TRUE(Put(k, value, k).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->SecondaryRangeDelete(WriteOptions(), 100, 900).ok());
  ASSERT_TRUE(Reopen().ok());
  // The dropped-page bitmap must survive via the MANIFEST.
  auto it = db_->NewIterator(ReadOptions());
  uint64_t live = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_TRUE(it->delete_key() < 100 || it->delete_key() >= 900);
    live++;
  }
  EXPECT_EQ(live, 200u);
}

TEST_F(DBTest, RecoversRangeDeleteInWal) {
  options_.enable_wal = true;
  Open();
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(Put(k, "v").ok());
  }
  ASSERT_TRUE(
      db_->RangeDelete(WriteOptions(), EncodeKey(10), EncodeKey(20)).ok());
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(Get(15), "NOT_FOUND");
  EXPECT_EQ(Get(25), "v");
}

TEST_F(DBTest, TornWalTailRecoversPrefix) {
  options_.enable_wal = true;
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  ASSERT_TRUE(Put(2, "two").ok());
  db_.reset();

  // Find the WAL and chop a few bytes off its tail.
  const std::string wal_name =
      test::FindFileWithSuffix(env_.get(), "testdb", ".wal");
  ASSERT_FALSE(wal_name.empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), wal_name, &contents).ok());
  contents.resize(contents.size() - 3);
  ASSERT_TRUE(WriteStringToFile(env_.get(), contents, wal_name).ok());

  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(Get(1), "one");          // intact prefix recovered
  EXPECT_EQ(Get(2), "NOT_FOUND");    // torn record dropped
}

TEST_F(DBTest, WalDisabledLosesUnflushedData) {
  options_.enable_wal = false;
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Put(2, "two").ok());  // unflushed
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(Get(1), "one");
  EXPECT_EQ(Get(2), "NOT_FOUND");
}

TEST_F(DBTest, WriteFailureSurfacesAsIOError) {
  Open();
  std::string value(100, 'x');
  env_->InjectFaults(test::FailWritesAfter(50));
  Status failure;
  for (uint64_t k = 0; k < 5000; k++) {
    failure = Put(k, value);
    if (!failure.ok()) {
      break;
    }
  }
  EXPECT_TRUE(failure.IsIOError());
  env_->ClearFaults();
}

// A process crash keeps every acknowledged write, even unsynced ones: each
// WAL group reaches the OS before Put returns, so SIGKILL loses only what
// the engine never acknowledged. A child process loads a PosixEnv DB with
// sync=false through several memtable switches and reports each
// acknowledged key over a pipe; the parent kills it mid-load, reopens the
// DB and reads every reported key back.
TEST(PosixCrashTest, AcknowledgedWritesSurviveSigkill) {
  // Runs on every exit path, a failed assertion included: kills and reaps
  // the child (left alive, it would block on the full pipe forever),
  // closes the pipe and removes the DB directory.
  struct Cleanup {
    std::string dir = "/tmp/lethe_crash_test_XXXXXX";
    pid_t child = -1;
    int fds[2] = {-1, -1};
    ~Cleanup() {
      if (child > 0) {
        kill(child, SIGKILL);
        waitpid(child, nullptr, 0);
      }
      for (int fd : fds) {
        if (fd >= 0) {
          close(fd);
        }
      }
      const std::string dbname = dir + "/db";
      std::vector<std::string> children;
      if (Env::Default()->GetChildren(dbname, &children).ok()) {
        for (const std::string& name : children) {
          Env::Default()->RemoveFile(dbname + "/" + name).ok();
        }
      }
      rmdir(dbname.c_str());
      rmdir(dir.c_str());
    }
  } cleanup;
  ASSERT_NE(mkdtemp(cleanup.dir.data()), nullptr);
  const std::string dbname = cleanup.dir + "/db";
  Options options;
  options.write_buffer_bytes = 64 << 10;
  options.target_file_bytes = 64 << 10;
  auto value_of = [](uint32_t i) {
    std::string value = "value-" + std::to_string(i);
    value.resize(120, static_cast<char>('a' + i % 26));
    return value;
  };
  // ~140 bytes per entry: the kill lands after 12+ memtable switches.
  constexpr uint32_t kKillAfter = 6000;

  ASSERT_EQ(pipe(cleanup.fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(cleanup.fds[0]);
    std::unique_ptr<DB> db;
    if (!DB::Open(options, dbname, &db).ok()) {
      _exit(2);
    }
    for (uint32_t i = 0;; i++) {
      if (!db->Put(WriteOptions(), EncodeKey(i), i, value_of(i)).ok() ||
          write(cleanup.fds[1], &i, sizeof(i)) != sizeof(i)) {
        _exit(3);
      }
    }
  }
  cleanup.child = child;
  close(cleanup.fds[1]);
  cleanup.fds[1] = -1;
  std::vector<uint32_t> acked;
  uint32_t i;
  while (read(cleanup.fds[0], &i, sizeof(i)) == sizeof(i)) {
    acked.push_back(i);
    if (acked.size() == kKillAfter && kill(child, SIGKILL) != 0) {
      ADD_FAILURE() << "kill failed: " << strerror(errno);
      break;
    }
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  cleanup.child = -1;
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited with status "
                                    << WEXITSTATUS(wstatus);
  ASSERT_GE(acked.size(), kKillAfter);
  EXPECT_GE(test::CountTableFiles(Env::Default(), dbname), 2u);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  for (uint32_t k : acked) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &value).ok())
        << "acknowledged key " << k << " of " << acked.size() << " lost";
    ASSERT_EQ(value, value_of(k)) << k;
  }
}

// ---------------------------------------------------------------------------
// Property tests: DB vs the reference model, across the configuration
// matrix (compaction style × delete-tile granularity × FADE).

struct PropertyConfig {
  CompactionStyle style;
  uint32_t pages_per_tile;
  uint64_t dth_micros;  // 0 = FADE off
  bool filter_blind_deletes;
};

class DBPropertyTest : public ::testing::TestWithParam<PropertyConfig> {};

TEST_P(DBPropertyTest, MatchesReferenceModel) {
  const PropertyConfig& config = GetParam();
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);

  Options options;
  options.env = &env;
  options.clock = &clock;
  options.write_buffer_bytes = 8 << 10;
  options.target_file_bytes = 8 << 10;
  options.size_ratio = 3;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;
  options.table.pages_per_tile = config.pages_per_tile;
  options.compaction_style = config.style;
  options.delete_persistence_threshold_micros = config.dth_micros;
  options.filter_blind_deletes = config.filter_blind_deletes;
  if (config.dth_micros > 0) {
    options.file_picking = FilePickingPolicy::kMaxTombstones;
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "propdb", &db).ok());

  // Delete keys are monotone timestamps and secondary deletes are prefix
  // ranges [0, t) — the paper's "delete everything older than D" pattern.
  // This keeps the model exact: with per-key monotone delete keys,
  // physically dropping a version can never resurface an older one (the
  // older version's timestamp is smaller, so it is always inside the
  // deleted prefix too).
  const uint64_t key_space = 400;
  KeyModel model(0, key_space, test::ReproHint());
  Random rnd(GetParam().pages_per_tile * 1000 + 17);
  uint64_t timestamp = 0;

  for (int i = 0; i < 6000; i++) {
    SCOPED_TRACE("op " + std::to_string(i));
    clock.AdvanceMicros(25);
    double roll = rnd.NextDouble();
    uint64_t k = rnd.Uniform(key_space);
    if (roll < 0.55) {  // put / update
      std::string value = "val-" + std::to_string(k) + "-" +
                          std::to_string(i) + std::string(40, 'p');
      ASSERT_TRUE(model.Write(db.get(), ModelOp::Put(k, ++timestamp, value))
                      .ok());
    } else if (roll < 0.70) {  // point delete
      ASSERT_TRUE(model.Write(db.get(), ModelOp::Delete(k)).ok());
    } else if (roll < 0.73) {  // sort-key range delete
      uint64_t len = 1 + rnd.Uniform(20);
      ASSERT_TRUE(model.Write(db.get(), ModelOp::RangeDelete(k, k + len)).ok());
    } else if (roll < 0.76 && timestamp > 0) {  // secondary range delete
      // Prefix delete: everything with timestamp < hi.
      uint64_t hi = 1 + rnd.Uniform(timestamp);
      ASSERT_TRUE(
          model.Write(db.get(), ModelOp::SecondaryRangeDelete(0, hi)).ok());
    } else if (roll < 0.95) {  // point lookup
      ASSERT_TRUE(model.CheckGet(db.get(), k));
    } else if (i % 10 == 0) {  // full scan comparison (sparse: expensive)
      ASSERT_TRUE(model.CheckScan(db.get(), 0, UINT64_MAX));
    }
  }

  // Final full verification after compacting everything.
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  ASSERT_TRUE(model.CheckAll(db.get()));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, DBPropertyTest,
    ::testing::Values(
        PropertyConfig{CompactionStyle::kLeveling, 1, 0, false},
        PropertyConfig{CompactionStyle::kLeveling, 1, 50000, false},
        PropertyConfig{CompactionStyle::kLeveling, 4, 0, false},
        PropertyConfig{CompactionStyle::kLeveling, 4, 50000, true},
        PropertyConfig{CompactionStyle::kTiering, 1, 0, false},
        PropertyConfig{CompactionStyle::kTiering, 4, 0, false},
        PropertyConfig{CompactionStyle::kTiering, 4, 50000, false},
        PropertyConfig{CompactionStyle::kLeveling, 8, 100000, true}));

// ---------------------------------------------------------------------------
// Decoded-page cache.

class PageCacheDBTest : public DBTest {
 protected:
  void SetUp() override {
    DBTest::SetUp();
    options_.page_cache_bytes = 4 << 20;
  }

  void LoadAndCompact(uint64_t n) {
    std::string value(100, 'x');
    for (uint64_t k = 0; k < n; k++) {
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(
          model_.Write(db_.get(), ModelOp::Put(k, k, value + std::to_string(k)))
              .ok());
    }
    ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  }

  KeyModel model_{0, 2000, test::ReproHint()};
};

TEST_F(PageCacheDBTest, WarmLookupsPerformZeroEnvPageReads) {
  Open();
  const uint64_t n = 2000;
  LoadAndCompact(n);

  // Warm-up: every page a lookup touches lands in the cache.
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }
  const uint64_t reads_after_warmup = env_->stats().pages_read.load();
  const uint64_t hits_after_warmup = db_->stats().page_cache_hits.load();

  // Steady state: identical results, zero Env reads, hits keep rising.
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }
  EXPECT_EQ(env_->stats().pages_read.load(), reads_after_warmup);
  EXPECT_GT(db_->stats().page_cache_hits.load(), hits_after_warmup);
  EXPECT_GT(db_->stats().page_cache_charge_bytes.load(), 0u);
}

TEST_F(PageCacheDBTest, ResultsIdenticalWithCacheOnAndOff) {
  // Two engines over the same key sequence, one cached, one not: every
  // lookup and a full scan of each must match one model exactly.
  Options cached = options_;
  Options uncached = options_;
  uncached.page_cache_bytes = 0;
  std::unique_ptr<DB> db_cached, db_uncached;
  ASSERT_TRUE(DB::Open(cached, "db_cached", &db_cached).ok());
  ASSERT_TRUE(DB::Open(uncached, "db_uncached", &db_uncached).ok());

  const uint64_t n = 1500;
  KeyModel model(0, n, test::ReproHint());
  auto write = [&](const ModelOp& op) {
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(model.Write(db_cached.get(), op).ok());
    ASSERT_TRUE(op.IssueTo(db_uncached.get()).ok());
  };
  for (uint64_t k = 0; k < n; k++) {
    const uint64_t key = k * 37 % n;
    write(ModelOp::Put(key, k, "v" + std::to_string(k)));
    if (k % 11 == 0) {
      write(ModelOp::Delete(key));
    }
  }
  ASSERT_TRUE(db_cached->CompactUntilQuiescent().ok());
  ASSERT_TRUE(db_uncached->CompactUntilQuiescent().ok());

  ASSERT_TRUE(model.CheckAll(db_cached.get()));
  ASSERT_TRUE(model.CheckAll(db_uncached.get()));
  // Second cached pass (now warm) still agrees.
  ASSERT_TRUE(model.CheckAll(db_cached.get()));
  EXPECT_GT(db_cached->stats().page_cache_hits.load(), 0u);
  EXPECT_EQ(db_uncached->stats().page_cache_hits.load(), 0u);
  EXPECT_EQ(db_uncached->stats().page_cache_misses.load(), 0u);
}

TEST_F(PageCacheDBTest, SecondaryRangeDeleteInvalidatesWarmPages) {
  options_.table.pages_per_tile = 4;
  Open();
  const uint64_t n = 2000;
  LoadAndCompact(n);

  // Warm the cache over the whole key space.
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }

  // Drop the middle of the delete-key space; the rewritten/dropped pages
  // must not be served stale from the cache.
  ASSERT_TRUE(
      model_.Write(db_.get(), ModelOp::SecondaryRangeDelete(500, 1500)).ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

TEST_F(PageCacheDBTest, CompactionDropsDeadFilesFromCache) {
  Open();
  const uint64_t n = 2000;
  LoadAndCompact(n);
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }
  const uint64_t charge_warm = db_->stats().page_cache_charge_bytes.load();
  EXPECT_GT(charge_warm, 0u);

  // Overwrite everything and fold the tree: the old files die, and their
  // cached pages must go with them rather than linger as dead weight.
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(Put(k, "new" + std::to_string(k), k).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  // Every input of the final merge was deleted, so the cache holds at most
  // pages of the (never-read) output files.
  EXPECT_LT(db_->stats().page_cache_charge_bytes.load(), charge_warm);
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), "new" + std::to_string(k));
  }
}

TEST_F(PageCacheDBTest, CompactionAndBulkScansDoNotPopulateCache) {
  // Merges stream every input page once and then delete the file; caching
  // those decodes would evict the pages point lookups are hot on. The
  // engine reads compaction inputs with fill disabled, and user scans can
  // opt out via ReadOptions::fill_page_cache.
  Open();
  const uint64_t n = 2000;
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    // Scattered keys: every flush overlaps the L0 run, so merges do real
    // page reads (sequential keys would trivial-move everything).
    const uint64_t key = k * 37 % n;
    ASSERT_TRUE(Put(key, value + std::to_string(key), /*dk=*/key).ok());
  }
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  // Merges ran and read pages; none of those reads may have landed in the
  // cache.
  EXPECT_GT(env_->stats().pages_read.load(), 0u);
  EXPECT_EQ(db_->stats().page_cache_charge_bytes.load(), 0u);

  // A bulk scan with fill disabled serves hits but never inserts.
  ReadOptions no_fill;
  no_fill.fill_page_cache = false;
  {
    auto it = db_->NewIterator(no_fill);
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
    }
    ASSERT_TRUE(it->status().ok());
  }
  EXPECT_EQ(db_->stats().page_cache_charge_bytes.load(), 0u);

  // Default reads populate as before.
  EXPECT_EQ(Get(5), value + "5");
  EXPECT_GT(db_->stats().page_cache_charge_bytes.load(), 0u);

  // And a no-fill point lookup still *hits* what the default read cached.
  const uint64_t misses = db_->stats().page_cache_misses.load();
  std::string got;
  ASSERT_TRUE(db_->Get(no_fill, EncodeKey(5), &got).ok());
  EXPECT_EQ(got, value + "5");
  EXPECT_GT(db_->stats().page_cache_hits.load(), 0u);
  EXPECT_EQ(db_->stats().page_cache_misses.load(), misses);
}

// ---------------------------------------------------------------------------
// Unified memory budget: decoded pages cached and write buffers reserved
// against the same number.

class MemoryBudgetDBTest : public DBTest {
 protected:
  void SetUp() override {
    DBTest::SetUp();
    options_.memory_budget_bytes = 4 << 20;
  }

  void Load(uint64_t n) {
    std::string value(100, 'x');
    for (uint64_t k = 0; k < n; k++) {
      ASSERT_TRUE(Put(k, value + std::to_string(k), /*dk=*/k).ok());
    }
    ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  }

  PageCache* Cache() {
    return static_cast<DBImpl*>(db_.get())->TEST_page_cache();
  }
};

TEST_F(MemoryBudgetDBTest, FileDeletionEvictsTheFilesPages) {
  Open();
  Load(1200);
  std::string value(100, 'x');
  for (uint64_t k = 0; k < 1200; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }
  const uint64_t charge_warm = db_->stats().page_cache_charge_bytes.load();
  ASSERT_GT(charge_warm, 0u);

  // CompactAll rewrites the whole tree: every pre-existing file is deleted,
  // and deletion must drop its pages from the cache. The merge reads inputs
  // without filling pages, and nothing has read the new output files yet,
  // so the charge falls below the warm value.
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_LT(db_->stats().page_cache_charge_bytes.load(), charge_warm);

  for (uint64_t k = 0; k < 1200; k += 11) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }
}

TEST_F(MemoryBudgetDBTest, ReservationTracksWriteBuffers) {
  Open();
  // Buffered-but-unflushed writes stake their bytes against the budget.
  std::string value(200, 'v');
  for (uint64_t k = 0; k < 40; k++) {
    ASSERT_TRUE(Put(k, value, k).ok());
  }
  const uint64_t staked = db_->stats().cache_reservation_bytes.load();
  EXPECT_GT(staked, 0u);
  EXPECT_EQ(Cache()->ReservedBytes(), staked);

  // Flushing empties the memtable; the stake shrinks with it.
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_LT(db_->stats().cache_reservation_bytes.load(), staked);
}

TEST_F(MemoryBudgetDBTest, ReservationRaiseRefreshesCacheGauges) {
  // Growing write buffers raise the reservation, which evicts pages with no
  // page insert or evict to follow. The gauges must still be exact.
  options_.memory_budget_bytes = 256 << 10;
  options_.write_buffer_bytes = 128 << 10;
  Open();
  const uint64_t n = 1200;
  Load(n);
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k));
  }
  const uint64_t evictions = db_->stats().page_cache_evictions.load();

  const std::string big(200, 'w');
  for (uint64_t k = n; k < n + 500; k++) {
    ASSERT_TRUE(Put(k, big, k).ok());
  }
  EXPECT_EQ(db_->stats().page_cache_charge_bytes.load(),
            Cache()->TotalCharge());
  EXPECT_GT(db_->stats().page_cache_evictions.load(), evictions);
}

TEST_F(MemoryBudgetDBTest, TinyBudgetStaysCorrect) {
  // A budget smaller than one memtable: the reservation zeroes the block
  // budget, so every block is evicted as soon as the next one arrives —
  // correctness must not depend on residency.
  options_.memory_budget_bytes = 8 << 10;
  Open();
  const uint64_t n = 600;
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(Put(k, value + std::to_string(k), k).ok());
  }
  ASSERT_TRUE(db_->CompactUntilQuiescent().ok());
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(Get(k), value + std::to_string(k)) << k;
  }
  EXPECT_GT(db_->stats().page_cache_evictions.load(), 0u);
  ASSERT_TRUE(
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants().ok());
}

TEST_F(MemoryBudgetDBTest, TinyBudgetBuildsEachTombstoneIndexOnce) {
  // A budget smaller than one memtable leaves no room for pages: each page
  // insert evicts what its cache shard held. A table's fragmented tombstone
  // list lives on its reader, outside that churn, so Gets that keep probing
  // the same tables build each list once.
  options_.memory_budget_bytes = 16 << 10;
  Open();
  const uint64_t n = 1200;
  Load(n);
  std::string value(100, 'x');
  for (uint64_t round = 0; round < 4; round++) {
    // One small range tombstone per quarter of the key space, so merges
    // that cut files by size leave the tombstones in different tables.
    clock_.AdvanceMicros(1);
    const uint64_t begin = round * (n / 4) + 100;
    ASSERT_TRUE(db_->RangeDelete(WriteOptions(), EncodeKey(begin),
                                 EncodeKey(begin + 5))
                    .ok());
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_TRUE(db_->WaitForCompact().ok());

  auto* impl = static_cast<DBImpl*>(db_.get());
  uint64_t files_with_rts = 0;
  const int levels = static_cast<int>(db_->GetLevelSnapshots().size());
  for (int level = 0; level < levels; level++) {
    for (const FileMeta& f : impl->TEST_LevelFiles(level)) {
      files_with_rts += f.num_range_tombstones > 0 ? 1 : 0;
    }
  }
  ASSERT_GE(files_with_rts, 2u);

  Random rnd(17);
  for (int i = 0; i < 2000; i++) {
    const uint64_t k = rnd.Uniform(n);
    const bool deleted = k % (n / 4) >= 100 && k % (n / 4) < 105;
    ASSERT_EQ(Get(k), deleted ? "NOT_FOUND" : value + std::to_string(k))
        << k;
  }
  EXPECT_GT(db_->stats().page_cache_evictions.load(), 0u);
  EXPECT_GT(db_->stats().rt_cover_probes.load(), 0u);
  EXPECT_LE(db_->stats().rt_fragment_builds.load(), files_with_rts);
}

TEST_F(DBTest, PageCacheDisabledReproducesExactIoCounts) {
  // Two identical cache-less runs must produce byte-identical I/O counters
  // (the Fig 6 benches depend on this determinism), and enabling the cache
  // must strictly reduce Env page reads for the same read workload.
  auto run = [&](uint64_t cache_bytes, uint64_t* lookup_pages_read) {
    auto base = NewMemEnv();
    IoCountingEnv env(base.get(), 1024);
    LogicalClock clock(1);
    Options options = options_;
    options.env = &env;
    options.clock = &clock;
    options.page_cache_bytes = cache_bytes;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, "iodb", &db).ok());
    std::string value(100, 'x');
    for (uint64_t k = 0; k < 1200; k++) {
      clock.AdvanceMicros(1);
      EXPECT_TRUE(
          db->Put(WriteOptions(), EncodeKey(k), k, value).ok());
    }
    EXPECT_TRUE(db->CompactUntilQuiescent().ok());
    const uint64_t before = env.stats().pages_read.load();
    for (int round = 0; round < 3; round++) {
      for (uint64_t k = 0; k < 1200; k++) {
        std::string got;
        EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok());
      }
    }
    *lookup_pages_read = env.stats().pages_read.load() - before;
  };

  uint64_t uncached_a = 0, uncached_b = 0, cached = 0;
  run(0, &uncached_a);
  run(0, &uncached_b);
  run(4 << 20, &cached);
  EXPECT_EQ(uncached_a, uncached_b);
  EXPECT_LT(cached, uncached_a);
}

// ---- WriteBatch + group commit ---------------------------------------------

TEST_F(DBTest, WriteBatchAppliesAtomicallyInOrder) {
  Open();
  WriteBatch batch;
  batch.Put(EncodeKey(1), 11, "one");
  batch.Put(EncodeKey(2), 22, "two");
  batch.Delete(EncodeKey(1));  // later op in the batch wins
  batch.Put(EncodeKey(3), 33, "three");
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(Get(1), "NOT_FOUND");
  EXPECT_EQ(Get(2), "two");
  EXPECT_EQ(Get(3), "three");

  WriteBatch rd;
  rd.RangeDelete(EncodeKey(2), EncodeKey(4));
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(db_->Write(WriteOptions(), &rd).ok());
  EXPECT_EQ(Get(2), "NOT_FOUND");
  EXPECT_EQ(Get(3), "NOT_FOUND");

  WriteBatch bad;
  bad.RangeDelete(EncodeKey(5), EncodeKey(5));
  EXPECT_TRUE(db_->Write(WriteOptions(), &bad).IsInvalidArgument());
}

TEST_F(DBTest, WriteBatchSurvivesFlushAndReopen) {
  Open();
  WriteBatch batch;
  for (uint64_t k = 0; k < 200; k++) {
    batch.Put(EncodeKey(k), k, "batched-" + std::to_string(k));
  }
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 200; k++) {
    EXPECT_EQ(Get(k), "batched-" + std::to_string(k));
  }
}

// A Get reads at the last published sequence, so a batch the writer is still
// applying is invisible to it. Every round rewrites all keys with the round
// number; a batch applies its keys in order, so a reader that reads the first
// key and then the last must never find the first newer than the last.
TEST_F(DBTest, WriteBatchIsAtomicToConcurrentGets) {
  options_.inline_compactions = false;
  options_.write_buffer_bytes = 64 << 20;  // every round stays in memory
  Open();
  constexpr uint64_t kKeys = 5000;
  constexpr int kRounds = 40;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    WriteBatch batch;
    for (int round = 0; round < kRounds; round++) {
      batch.Clear();
      const std::string value = std::to_string(round);
      for (uint64_t k = 0; k < kKeys; k++) {
        batch.Put(EncodeKey(k), 0, value);
      }
      EXPECT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    }
    done.store(true);
  });
  auto round_of = [](const std::string& value) {
    return value == "NOT_FOUND" ? -1 : std::stoi(value);
  };
  uint64_t pairs = 0;
  uint64_t torn = 0;
  while (!done.load()) {
    const int first = round_of(Get(0));
    const int last = round_of(Get(kKeys - 1));
    pairs++;
    torn += first > last ? 1 : 0;
  }
  writer.join();
  EXPECT_EQ(torn, 0u) << "of " << pairs << " read pairs";
  EXPECT_EQ(Get(0), std::to_string(kRounds - 1));
}

TEST_F(DBTest, GroupCommitAmortizesWalAppends) {
  Open();
  const uint64_t appends_before = db_->stats().wal_appends.load();
  WriteBatch batch;
  for (uint64_t k = 0; k < 100; k++) {
    batch.Put(EncodeKey(k), k, "v" + std::to_string(k));
  }
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  // One physical WAL append commits the whole 100-op batch.
  EXPECT_EQ(db_->stats().wal_appends.load() - appends_before, 1u);
  EXPECT_EQ(db_->stats().group_commit_batches.load(), 1u);
  EXPECT_EQ(db_->stats().group_commit_entries.load(), 100u);
}

/// Forwards to a target Env, counting WritableFile::Sync calls on WAL files.
class WalSyncCountingEnv final : public ForwardingEnv {
 public:
  explicit WalSyncCountingEnv(Env* target) : ForwardingEnv(target) {}

  int wal_syncs() const { return wal_syncs_.load(); }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    LETHE_RETURN_IF_ERROR(target_->NewWritableFile(fname, &file));
    const bool is_wal = fname.size() > 4 &&
                        fname.compare(fname.size() - 4, 4, ".wal") == 0;
    *result = std::make_unique<File>(std::move(file),
                                     is_wal ? &wal_syncs_ : nullptr);
    return Status::OK();
  }

 private:
  class File final : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> base, std::atomic<int>* syncs)
        : base_(std::move(base)), syncs_(syncs) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      if (syncs_ != nullptr) {
        syncs_->fetch_add(1);
      }
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    std::atomic<int>* syncs_;
  };

  std::atomic<int> wal_syncs_{0};
};

TEST_F(DBTest, WriteOptionsSyncIsTheOneWalSyncPath) {
  WalSyncCountingEnv env(env_.get());
  options_.env = &env;
  Open();
  const uint64_t syncs_before = db_->stats().wal_syncs.load();
  const int env_syncs_before = env.wal_syncs();

  // An unsynced Put appends to the WAL but never syncs it.
  ASSERT_TRUE(Put(1, "unsynced").ok());
  EXPECT_EQ(db_->stats().wal_syncs.load(), syncs_before);
  EXPECT_EQ(env.wal_syncs(), env_syncs_before);

  // A synced Put issues exactly one sync, on the WAL, and counts it.
  WriteOptions sync_write;
  sync_write.sync = true;
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(db_->Put(sync_write, EncodeKey(2), 2, "synced").ok());
  EXPECT_EQ(db_->stats().wal_syncs.load(), syncs_before + 1);
  EXPECT_EQ(env.wal_syncs(), env_syncs_before + 1);

  db_.reset();  // close before `env` goes out of scope
}

/// Forwards to a target Env; while set, FailTables fails every table
/// create and FailListing fails every directory listing.
class ListingFaultEnv final : public ForwardingEnv {
 public:
  explicit ListingFaultEnv(Env* target) : ForwardingEnv(target) {}

  void FailTables(bool fail) { fail_tables_.store(fail); }
  void FailListing(bool fail) { fail_listing_.store(fail); }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fail_tables_.load() && fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, ".sst") == 0) {
      return Status::IOError("table create held off");
    }
    return target_->NewWritableFile(fname, result);
  }
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override {
    if (fail_listing_.load()) {
      return Status::IOError("listing failed");
    }
    return target_->GetChildren(dirname, result);
  }

 private:
  std::atomic<bool> fail_tables_{false};
  std::atomic<bool> fail_listing_{false};
};

// Without a directory listing Open cannot know which WALs exist. Replaying
// only the manifest's WAL would skip the newer ones, and the fresh WAL could
// take an unreplayed one's number: Open must fail, and a retry recover all.
TEST_F(DBTest, FailedListingFailsOpenInsteadOfSkippingWals) {
  ListingFaultEnv env(env_.get());
  options_.env = &env;
  options_.inline_compactions = false;
  env.FailTables(true);  // no flush installs: every memtable keeps its WAL
  Open();
  ErrorHandler::RetryPolicy stay_degraded;
  stay_degraded.max_retries = 1 << 20;  // keep accepting writes
  static_cast<DBImpl*>(db_.get())
      ->TEST_error_handler()
      ->TEST_SetRetryPolicy(stay_degraded);

  auto wals = [&] { return test::WalNumbers(env_.get(), "testdb").size(); };
  const std::string value(256, 'w');
  uint64_t written = 0;
  while (wals() < 2) {
    ASSERT_LT(written, 1000u) << "no memtable swap";
    ASSERT_TRUE(Put(written++, value).ok());
  }
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(Put(written++, value).ok());
  }
  db_.reset();
  ASSERT_GE(wals(), 2u);
  env.FailTables(false);

  env.FailListing(true);
  EXPECT_FALSE(Reopen().ok());
  env.FailListing(false);
  Open();
  for (uint64_t k = 0; k < written; k++) {
    ASSERT_EQ(Get(k), value) << k;
  }
  db_.reset();  // close before `env` goes out of scope
}

// ---- pipelined flush ---------------------------------------------------------

/// Forwards to a target Env. The first table file to Sync blocks inside
/// Sync until Release(); Release(false) then fails that Sync. While
/// FailProbes(true) holds, the error handler's recovery probe cannot create
/// its file, so a failed flush stays unresumed.
class TableSyncGateEnv final : public ForwardingEnv {
 public:
  explicit TableSyncGateEnv(Env* target) : ForwardingEnv(target) {}

  /// Whether the first table Sync is waiting at the gate.
  bool blocked() {
    std::lock_guard<std::mutex> l(mu_);
    return blocked_;
  }
  /// Table Syncs that passed through to the target (the gated one counts
  /// only after Release(true)).
  int table_syncs() {
    std::lock_guard<std::mutex> l(mu_);
    return table_syncs_;
  }
  void Release(bool ok) {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    release_ok_ = ok;
    cv_.notify_all();
  }
  void FailProbes(bool fail) { fail_probes_.store(fail); }
  size_t CountWals(const std::string& dbname) {
    std::vector<std::string> children;
    target_->GetChildren(dbname, &children).ok();
    size_t n = 0;
    for (const std::string& child : children) {
      n += child.size() > 4 && child.compare(child.size() - 4, 4, ".wal") == 0;
    }
    return n;
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fail_probes_.load() && fname.find("HEALTHCHECK") != std::string::npos) {
      return Status::IOError("probe held off");
    }
    std::unique_ptr<WritableFile> file;
    LETHE_RETURN_IF_ERROR(target_->NewWritableFile(fname, &file));
    const bool is_table = fname.size() > 4 &&
                          fname.compare(fname.size() - 4, 4, ".sst") == 0;
    *result = is_table ? std::make_unique<File>(std::move(file), this)
                       : std::move(file);
    return Status::OK();
  }

 private:
  class File final : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> base, TableSyncGateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      LETHE_RETURN_IF_ERROR(env_->Gate());
      Status s = base_->Sync();
      std::lock_guard<std::mutex> l(env_->mu_);
      env_->table_syncs_++;
      return s;
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    TableSyncGateEnv* env_;
  };

  Status Gate() {
    std::unique_lock<std::mutex> l(mu_);
    if (gate_used_) {
      return Status::OK();
    }
    gate_used_ = true;
    blocked_ = true;
    cv_.wait(l, [this] { return released_; });
    blocked_ = false;
    return release_ok_ ? Status::OK() : Status::IOError("gated table sync");
  }

  std::atomic<bool> fail_probes_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_used_ = false;
  bool blocked_ = false;
  bool released_ = false;
  bool release_ok_ = true;
  int table_syncs_ = 0;
};

class PipelinedFlushTest : public DBTest {
 protected:
  void SetUp() override {
    DBTest::SetUp();
    gate_ = std::make_unique<TableSyncGateEnv>(env_.get());
    options_.env = gate_.get();
    options_.inline_compactions = false;
    options_.background_threads = 2;
  }
  void TearDown() override { db_.reset(); }  // before gate_ goes away

  size_t Wals() { return gate_->CountWals("testdb"); }

  /// Puts keys from `keys` (in order, through the model) until the DB holds
  /// `wals` WALs, i.e. until wals - 1 memtables are frozen and unflushed.
  void FillUntilWals(size_t wals, const std::vector<uint64_t>& keys,
                     size_t* next) {
    while (Wals() < wals) {
      ASSERT_LT(*next, keys.size()) << "ran out of keys before the freeze";
      const uint64_t key = keys[(*next)++];
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(
          model_.Write(db_.get(), ModelOp::Put(key, key, std::string(100, 'v')))
              .ok());
    }
  }

  DBHealth Health() {
    return static_cast<DBImpl*>(db_.get())->TEST_error_handler()->health();
  }

  std::unique_ptr<TableSyncGateEnv> gate_;
  KeyModel model_{0, 4096, "pipelined flush"};
};

std::vector<uint64_t> Range(uint64_t begin, uint64_t end, uint64_t step) {
  std::vector<uint64_t> keys;
  for (uint64_t k = begin; k < end; k += step) {
    keys.push_back(k);
  }
  return keys;
}

TEST_F(PipelinedFlushTest, DisjointMemtablesBuildTogetherAndInstallInOrder) {
  Open();
  const std::vector<uint64_t> keys = Range(0, 2000, 1);  // ascending
  size_t next = 0;
  FillUntilWals(2, keys, &next);  // memtable 1 frozen; its Sync blocks
  ASSERT_TRUE(test::WaitFor([&] { return gate_->blocked(); }, 10000));
  FillUntilWals(3, keys, &next);  // memtable 2 frozen, disjoint from 1

  // The second table is written and synced while the first is blocked...
  ASSERT_TRUE(test::WaitFor([&] { return gate_->table_syncs() == 1; }, 10000));
  EXPECT_TRUE(gate_->blocked());
  EXPECT_EQ(db_->stats().flushes_pipelined.load(), 1u);
  // ...but it waits for the first: no table is in the version, and both
  // flushed memtables' WALs remain.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(test::ReferencedTableFiles(db_.get()), 0u);
  EXPECT_EQ(Wals(), 3u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));

  gate_->Release(true);
  ASSERT_TRUE(test::WaitFor(
      [&] {
        return test::ReferencedTableFiles(db_.get()) == 2 && Wals() == 1;
      },
      10000));
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  ASSERT_TRUE(Reopen().ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

TEST_F(PipelinedFlushTest, OverlappingMemtablesNeverBuildTogether) {
  Open();
  size_t next = 0;
  FillUntilWals(2, Range(0, 4000, 2), &next);  // even keys
  ASSERT_TRUE(test::WaitFor([&] { return gate_->blocked(); }, 10000));
  next = 0;
  FillUntilWals(3, Range(1, 4001, 2), &next);  // odd keys: overlaps memtable 1

  // The second memtable waits for the first: no second table is started.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(gate_->table_syncs(), 0);
  EXPECT_EQ(test::CountTableFiles(gate_.get(), "testdb"), 1u);
  EXPECT_EQ(db_->stats().flushes_pipelined.load(), 0u);
  EXPECT_EQ(db_->stats().bg_jobs_deferred_overlap.load(), 0u);

  gate_->Release(true);
  ASSERT_TRUE(test::WaitFor(
      [&] { return Wals() == 1 && db_->stats().flushes.load() == 2; }, 10000));
  EXPECT_EQ(db_->stats().flushes_pipelined.load(), 0u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  ASSERT_TRUE(Reopen().ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

TEST_F(PipelinedFlushTest, FailedFrontSyncKeepsSuccessorParkedUntilResume) {
  Open();
  const std::vector<uint64_t> keys = Range(0, 2000, 1);
  size_t next = 0;
  FillUntilWals(2, keys, &next);
  ASSERT_TRUE(test::WaitFor([&] { return gate_->blocked(); }, 10000));
  FillUntilWals(3, keys, &next);
  ASSERT_TRUE(test::WaitFor([&] { return gate_->table_syncs() == 1; }, 10000));

  // The front flush fails and the probe cannot resume the DB yet.
  gate_->FailProbes(true);
  gate_->Release(false);
  ASSERT_TRUE(
      test::WaitFor([&] { return Health() != DBHealth::kHealthy; }, 10000));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The parked successor did not install ahead of its failed predecessor.
  EXPECT_EQ(test::ReferencedTableFiles(db_.get()), 0u);
  EXPECT_EQ(Wals(), 3u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));

  // Resume re-flushes the front, which takes the parked one along.
  gate_->FailProbes(false);
  ASSERT_TRUE(test::WaitFor(
      [&] {
        return Health() == DBHealth::kHealthy && Wals() == 1 &&
               test::ReferencedTableFiles(db_.get()) == 2;
      },
      10000));
  // The parked table survived the wait (no orphan sweep took it).
  EXPECT_TRUE(
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants().ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  ASSERT_TRUE(Reopen().ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

TEST_F(DBTest, RangeLocalFlushLeavesColdNeighbourAlone) {
  // Cold keys [0, 600) load in flushes of 150 keys each, except that the
  // last one also carries hot keys [600, 620): that L0 file straddles the
  // hot range's edge and is mostly cold. Hot keys [620, 660) make one more
  // file. Every later hot-only flush overlaps the straddling file but not
  // the other cold files (range-local), so it cuts its outputs at the span
  // edge: the first one splits the cold part off into its own file, and
  // later ones never touch it.
  constexpr uint64_t kCold = 600, kHot = 60, kPerFile = 150;
  options_.write_buffer_bytes = 64 << 10;  // flushes come from Flush()
  options_.target_file_bytes = 32 << 10;
  options_.size_ratio = 10;  // L0 holds everything: no compaction runs
  for (const bool inline_mode : {true, false}) {
    SCOPED_TRACE(inline_mode ? "inline" : "background");
    base_env_ = NewMemEnv();
    env_ = std::make_unique<IoCountingEnv>(base_env_.get(), 1024);
    options_.env = env_.get();
    options_.inline_compactions = inline_mode;
    options_.background_threads = inline_mode ? 1 : 2;
    Open();
    auto* impl = static_cast<DBImpl*>(db_.get());
    KeyModel model(0, kCold + kHot, "range-local flush");
    auto put = [&](uint64_t key, int round) {
      clock_.AdvanceMicros(1);
      const std::string value =
          std::to_string(round) +
          std::string(100, static_cast<char>('a' + round % 26));
      ASSERT_TRUE(
          model.Write(db_.get(), ModelOp::Put(key, key, value)).ok());
    };
    for (uint64_t k = 0; k < kCold + kHot; k++) {
      put(k, 0);
      if ((k + 1) % kPerFile == 0 && k + 1 < kCold) {
        ASSERT_TRUE(db_->Flush().ok());
      } else if (k + 1 == kCold + 20) {
        ASSERT_TRUE(db_->Flush().ok());
      }
    }
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_EQ(impl->TEST_LevelFiles(0).size(), kCold / kPerFile + 1);

    // The L0 file holding `key`, and the bytes of the files holding only
    // hot keys.
    auto file_of = [&](uint64_t key) -> uint64_t {
      for (const FileMeta& f : impl->TEST_LevelFiles(0)) {
        if (Slice(f.smallest_key).compare(EncodeKey(key)) <= 0 &&
            Slice(f.largest_key).compare(EncodeKey(key)) >= 0) {
          return f.file_number;
        }
      }
      return 0;
    };
    auto hot_bytes = [&] {
      uint64_t bytes = 0;
      for (const FileMeta& f : impl->TEST_LevelFiles(0)) {
        if (Slice(f.smallest_key).compare(EncodeKey(kCold)) >= 0) {
          bytes += f.file_size;
        }
      }
      return bytes;
    };
    const uint64_t straddling = file_of(kCold - 1);
    ASSERT_EQ(straddling, file_of(kCold));

    uint64_t cold_file = 0;
    for (int round = 1; round <= 20; round++) {
      for (uint64_t k = kCold; k < kCold + kHot; k++) {
        put(k, round);
      }
      const uint64_t written = env_->stats().bytes_written.load();
      ASSERT_TRUE(db_->Flush().ok());
      const uint64_t flush_bytes = env_->stats().bytes_written.load() - written;
      ASSERT_TRUE(impl->TEST_VerifyTreeInvariants().ok());
      EXPECT_EQ(impl->TEST_LevelFiles(0).size(), kCold / kPerFile + 1);
      if (round == 1) {
        cold_file = file_of(kCold - 1);
        EXPECT_NE(cold_file, straddling);
        EXPECT_NE(cold_file, file_of(kCold));  // the cold part stands alone
        continue;
      }
      EXPECT_EQ(file_of(kCold - 1), cold_file) << "round " << round;
      EXPECT_LE(flush_bytes, hot_bytes() * 6 / 5) << "round " << round;
    }
    EXPECT_TRUE(model.CheckAll(db_.get()));
    EXPECT_EQ(impl->stats().compactions.load(), 0u);

    // Control: a buffer spanning every L0 file is not range-local, so it
    // makes no cut even though its low edge leaves most of the first cold
    // file outside: every output but the last closes at the size target.
    put(130, 21);
    put(kCold + kHot - 1, 21);
    ASSERT_TRUE(db_->Flush().ok());
    const std::vector<FileMeta> merged = impl->TEST_LevelFiles(0);
    ASSERT_GT(merged.size(), 1u);
    for (size_t i = 0; i + 1 < merged.size(); i++) {
      EXPECT_GE(merged[i].file_size, options_.target_file_bytes) << i;
    }
    EXPECT_TRUE(impl->TEST_VerifyTreeInvariants().ok());
    EXPECT_TRUE(model.CheckAll(db_.get()));
    ASSERT_TRUE(Reopen().ok());
    EXPECT_TRUE(model.CheckAll(db_.get()));
    db_.reset();
  }
}

TEST_F(DBTest, GroupCommitMergesConcurrentWriters) {
  options_.inline_compactions = false;
  options_.write_buffer_bytes = 1 << 20;  // no flushes during the test
  Open();
  // A slow device makes writers pile up behind the leader's WAL append, so
  // commit groups must form.
  env_->SetAppendDelayMicros(200);
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; i++) {
        uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
        Status s = db_->Put(WriteOptions(), EncodeKey(key), key,
                            "w" + std::to_string(key));
        if (!s.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  env_->SetAppendDelayMicros(0);
  EXPECT_EQ(failures.load(), 0);
  const uint64_t writes = kThreads * kWritesPerThread;
  EXPECT_EQ(db_->stats().group_commit_entries.load(), writes);
  // Strictly fewer appends than writes == at least one multi-writer group.
  EXPECT_LT(db_->stats().wal_appends.load(), writes);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kWritesPerThread; i++) {
      uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
      EXPECT_EQ(Get(key), "w" + std::to_string(key));
    }
  }
}

// ---- background flush/compaction worker ------------------------------------

class BackgroundDBTest : public DBTest {
 protected:
  void SetUp() override {
    DBTest::SetUp();
    options_.inline_compactions = false;
  }

  DBImpl* impl() { return static_cast<DBImpl*>(db_.get()); }
};

TEST_F(BackgroundDBTest, WritesFlushAndCompactInBackground) {
  Open();
  const uint64_t n = 3000;
  std::string value(100, 'x');
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(Put(k * 37 % n, value + std::to_string(k * 37 % n)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_GT(db_->stats().flushes.load(), 0u);
  EXPECT_GT(test::ReferencedTableFiles(db_.get()), 0u);
  for (uint64_t k = 0; k < n; k++) {
    EXPECT_EQ(Get(k), value + std::to_string(k));
  }
  // Recovery sees the same data.
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < n; k++) {
    EXPECT_EQ(Get(k), value + std::to_string(k));
  }
}

TEST_F(BackgroundDBTest, WaitForCompactIsDeterministicBarrier) {
  Open();
  std::string value(100, 'y');
  for (uint64_t k = 0; k < 2000; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  auto first = db_->GetLevelSnapshots();
  const uint64_t compactions = db_->stats().compactions.load();
  // A second barrier with no intervening writes must observe an identical,
  // quiescent tree.
  ASSERT_TRUE(db_->WaitForCompact().ok());
  auto second = db_->GetLevelSnapshots();
  EXPECT_EQ(db_->stats().compactions.load(), compactions);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); i++) {
    EXPECT_EQ(first[i].num_files, second[i].num_files);
    EXPECT_EQ(first[i].num_entries, second[i].num_entries);
    EXPECT_EQ(first[i].bytes, second[i].bytes);
  }
}

TEST_F(BackgroundDBTest, StallTriggerFiresAndReleases) {
  options_.max_imm_memtables = 1;
  Open();
  // Freeze the worker so the flush pipeline fills deterministically.
  impl()->TEST_scheduler()->TEST_Pause();

  std::string value(500, 's');
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    // Enough data for three memtable swaps: the second swap finds the
    // immutable list full (cap 1, worker frozen) and must stall.
    for (uint64_t k = 0; k < 120; k++) {
      Status s = db_->Put(WriteOptions(), EncodeKey(k), k, value);
      ASSERT_TRUE(s.ok());
    }
    writer_done.store(true);
  });

  // The writer must hit the stall; poll for it (wall-clock bounded).
  EXPECT_TRUE(test::WaitFor(
      [&] { return db_->stats().write_stalls.load() > 0; }, 10000));
  EXPECT_FALSE(writer_done.load());

  // Releasing the worker must release the stalled writer.
  impl()->TEST_scheduler()->TEST_Resume();
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_GE(db_->stats().StallHistogram().count(), 1u);
  ASSERT_TRUE(db_->Flush().ok());
  for (uint64_t k = 0; k < 120; k++) {
    EXPECT_EQ(Get(k), value);
  }
}

TEST_F(BackgroundDBTest, InlineAndBackgroundConvergeToSameTree) {
  struct Result {
    std::vector<LevelSnapshot> levels;
    uint64_t flushes = 0;
  };
  auto run = [&](bool inline_mode) {
    auto base = NewMemEnv();
    IoCountingEnv env(base.get(), 1024);
    LogicalClock clock(1);
    Options opt = options_;
    opt.env = &env;
    opt.clock = &clock;
    opt.inline_compactions = inline_mode;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(opt, "eqdb", &db).ok());
    // Both runs must hold exactly the workload's contents.
    KeyModel model(0, 400, test::ReproHint());
    std::string value(80, 'e');
    for (uint64_t i = 0; i < 1200; i++) {
      clock.AdvanceMicros(1);
      uint64_t key = i * 13 % 400;
      const ModelOp op =
          i % 5 == 4 ? ModelOp::Delete(key) : ModelOp::Put(key, i, value);
      EXPECT_TRUE(model.Write(db.get(), op).ok());
      if (!inline_mode) {
        // Lockstep: drain background work after every write so flush and
        // compaction decisions see exactly the tree the inline engine sees.
        EXPECT_TRUE(db->WaitForCompact().ok());
      }
    }
    EXPECT_TRUE(db->CompactUntilQuiescent().ok());
    Result r;
    r.levels = db->GetLevelSnapshots();
    r.flushes = db->stats().flushes.load();
    EXPECT_TRUE(model.CheckScan(db.get(), 0, UINT64_MAX));
    return r;
  };

  Result inline_result = run(true);
  Result bg_result = run(false);
  EXPECT_EQ(inline_result.flushes, bg_result.flushes);
  ASSERT_EQ(inline_result.levels.size(), bg_result.levels.size());
  for (size_t i = 0; i < inline_result.levels.size(); i++) {
    EXPECT_EQ(inline_result.levels[i].num_files, bg_result.levels[i].num_files)
        << "level " << i;
    EXPECT_EQ(inline_result.levels[i].num_runs, bg_result.levels[i].num_runs);
    EXPECT_EQ(inline_result.levels[i].num_entries,
              bg_result.levels[i].num_entries);
    EXPECT_EQ(inline_result.levels[i].num_point_tombstones,
              bg_result.levels[i].num_point_tombstones);
    EXPECT_EQ(inline_result.levels[i].bytes, bg_result.levels[i].bytes);
  }
}

TEST_F(BackgroundDBTest, SecondaryRangeDeleteCoversUnflushedMemtables) {
  options_.table.pages_per_tile = 4;
  Open();
  impl()->TEST_scheduler()->TEST_Pause();  // keep a memtable frozen in imm_
  std::string value(500, 'k');
  for (uint64_t k = 0; k < 40; k++) {
    ASSERT_TRUE(Put(k, value, /*dk=*/100 + k).ok());
  }
  impl()->TEST_scheduler()->TEST_Resume();
  // Delete delete-keys [100, 120): entries may live in mem, imm, or L0+.
  clock_.AdvanceMicros(1);
  Status srd = db_->SecondaryRangeDelete(WriteOptions(), 100, 120);
  ASSERT_TRUE(srd.ok()) << srd.ToString();
  for (uint64_t k = 0; k < 40; k++) {
    EXPECT_EQ(Get(k), k < 20 ? "NOT_FOUND" : value) << "key " << k;
  }
}

TEST_F(BackgroundDBTest, CloseWithPendingBackgroundWorkIsLossless) {
  Open();
  std::string value(200, 'c');
  for (uint64_t k = 0; k < 2000; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  // Destroy immediately: flush/compaction jobs are still queued or running.
  // The destructor must join the worker and drain pending memtables.
  db_.reset();
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 2000; k++) {
    EXPECT_EQ(Get(k), value);
  }
}

TEST_F(BackgroundDBTest, WritesAfterCloseAreRejected) {
  Open();
  ASSERT_TRUE(Put(1, "one").ok());
  // The worker must reject enqueues after close: freeze it with a pending
  // flush, close, and verify the discarded job was drained at close.
  impl()->TEST_scheduler()->TEST_Pause();
  std::string value(500, 'r');
  for (uint64_t k = 0; k < 40; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  impl()->TEST_scheduler()->TEST_Resume();
  db_.reset();
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 40; k++) {
    EXPECT_EQ(Get(k), value);
  }
}

TEST_F(BackgroundDBTest, FlushFailureSurfacesAndRecoveryReplaysAllWals) {
  options_.max_imm_memtables = 4;
  Open();
  impl()->TEST_scheduler()->TEST_Pause();
  std::string value(500, 'f');
  // Fill past the buffer repeatedly: frozen memtables (one WAL each) plus
  // live data in the active memtable (another WAL).
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  // Every further disk append fails: the pending flushes cannot commit.
  env_->InjectFaults(test::FailWritesAfter(0));
  impl()->TEST_scheduler()->TEST_Resume();
  // The failure surfaces as a background error on the flush barrier.
  EXPECT_FALSE(db_->Flush().ok());
  // Close: the drain also fails, so the WALs must survive for recovery.
  db_.reset();
  env_->ClearFaults();
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 100; k++) {
    EXPECT_EQ(Get(k), value);
  }
  // Crash-surviving WAL numbers can exceed the manifest's file-number
  // counter; recovery must bump the counter past them, or the fresh WAL it
  // rotates onto collides with a replayed one and is deleted with it. A
  // second reopen exposes that loss.
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t k = 0; k < 100; k++) {
    EXPECT_EQ(Get(k), value);
  }
}

// ---- worker pool (background_threads > 1) ----------------------------------

class PoolDBTest : public BackgroundDBTest {
 protected:
  void SetUp() override {
    BackgroundDBTest::SetUp();
    options_.background_threads = 4;
  }
};

TEST_F(PoolDBTest, PauseBarrierFreezesEveryWorker) {
  // The stall test from the single-worker era, against a 4-worker pool:
  // TEST_Pause must freeze *all* workers (and only return once in-flight
  // jobs finished), or the frozen-pipeline stall below would race with a
  // straggler worker draining it.
  options_.max_imm_memtables = 1;
  Open();
  impl()->TEST_scheduler()->TEST_Pause();

  std::string value(500, 's');
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (uint64_t k = 0; k < 120; k++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), EncodeKey(k), k, value).ok());
    }
    writer_done.store(true);
  });

  EXPECT_TRUE(test::WaitFor(
      [&] { return db_->stats().write_stalls.load() > 0; }, 10000));
  EXPECT_FALSE(writer_done.load());

  impl()->TEST_scheduler()->TEST_Resume();
  writer.join();
  EXPECT_TRUE(writer_done.load());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  for (uint64_t k = 0; k < 120; k++) {
    EXPECT_EQ(Get(k), value);
  }
  EXPECT_TRUE(
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants().ok());
}

TEST_F(PoolDBTest, ConcurrentLoadKeepsTreeInvariants) {
  // Saturate the 4-worker pool from several writer threads, then verify the
  // sorted-run invariants and every key. Disjointness scheduling must keep
  // concurrent merges from ever producing overlapping runs.
  Open();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 1500;
  std::string value(100, 'w');
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; i++) {
        uint64_t key = static_cast<uint64_t>(t) * kPerWriter + i;
        clock_.AdvanceMicros(1);
        ASSERT_TRUE(
            db_->Put(WriteOptions(), EncodeKey(key), key, value).ok());
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_GT(db_->stats().bg_jobs_dispatched.load(), 0u);
  Status invariants =
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  for (uint64_t k = 0; k < kWriters * kPerWriter; k++) {
    ASSERT_EQ(Get(k), value) << k;
  }
}

TEST_F(PoolDBTest, CrashMidMergeRecoversWithoutOrphanSsts) {
  // Kill every table-file write after a point (WAL appends keep working),
  // with 4 workers' merges in flight. Reopen must replay the WALs, adopt
  // only manifest-installed files, and sweep the orphaned outputs the dead
  // merges left behind.
  Open();
  std::string value(200, 'c');
  uint64_t k = 0;
  for (; k < 1500; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  env_->InjectFaults(test::FailWritesAfter(25, ".sst"));
  // Keep writing until the background error surfaces on the write path
  // (WAL appends still succeed, so each accepted write stays durable).
  Status s;
  for (; k < 20000; k++) {
    s = Put(k, value);
    if (!s.ok()) {
      break;
    }
  }
  EXPECT_FALSE(s.ok());  // merges died and poisoned the engine
  const uint64_t acked = k;  // keys [0, acked) were acknowledged
  db_.reset();

  env_->ClearFaults();
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t i = 0; i < acked; i++) {
    ASSERT_EQ(Get(i), value) << i;
  }
  // Every .sst on disk is referenced by the recovered version: the crashed
  // merges' partial outputs were removed by the recovery sweep.
  EXPECT_EQ(test::CountTableFiles(env_.get(), "testdb"),
            test::ReferencedTableFiles(db_.get()));
  EXPECT_TRUE(
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants().ok());
}

TEST_F(PoolDBTest, CrashMidManifestInstallRecovers) {
  // Fail MANIFEST appends specifically: merges finish their output files
  // but die installing the version edit. Reopen must recover every acked
  // write and garbage-collect the uninstalled outputs.
  Open();
  std::string value(200, 'm');
  uint64_t k = 0;
  for (; k < 1200; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  env_->InjectFaults(test::FailWritesAfter(2, "MANIFEST"));
  Status s;
  for (; k < 20000; k++) {
    s = Put(k, value);
    if (!s.ok()) {
      break;
    }
  }
  EXPECT_FALSE(s.ok());
  const uint64_t acked = k;
  db_.reset();

  env_->ClearFaults();
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t i = 0; i < acked; i++) {
    ASSERT_EQ(Get(i), value) << i;
  }
  EXPECT_EQ(test::CountTableFiles(env_.get(), "testdb"),
            test::ReferencedTableFiles(db_.get()));
  // A second crash-free reopen stays stable.
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t i = 0; i < acked; i++) {
    ASSERT_EQ(Get(i), value) << i;
  }
}

TEST_F(BackgroundDBTest, InlineAndPoolSizesConvergeLogically) {
  // Property: the same seeded workload produces identical logical contents
  // (keys, values, delete keys) whether merges run inline, on one
  // background worker, or on a 4-worker pool: every run must equal one
  // model of the workload. Physical tree shape may differ with
  // concurrency; the data may not.
  auto run = [&](bool inline_mode, int threads) {
    SCOPED_TRACE("inline=" + std::to_string(inline_mode) +
                 " threads=" + std::to_string(threads));
    auto base = NewMemEnv();
    IoCountingEnv env(base.get(), 1024);
    LogicalClock clock(1);
    Options opt = options_;
    opt.env = &env;
    opt.clock = &clock;
    opt.inline_compactions = inline_mode;
    opt.background_threads = threads;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opt, "eq2db", &db).ok());
    KeyModel model(0, 500, test::ReproHint());
    Random rnd(12345);
    std::string value(60, 'q');
    for (uint64_t i = 0; i < 3000; i++) {
      clock.AdvanceMicros(3);
      uint64_t key = rnd.Uniform(500);
      double roll = rnd.NextDouble();
      const ModelOp op = roll < 0.70   ? ModelOp::Put(key, i, value)
                         : roll < 0.90 ? ModelOp::Delete(key)
                                       : ModelOp::RangeDelete(key, key + 5);
      ASSERT_TRUE(model.Write(db.get(), op).ok());
    }
    ASSERT_TRUE(db->CompactUntilQuiescent().ok());
    ASSERT_TRUE(model.CheckScan(db.get(), 0, UINT64_MAX));
    EXPECT_GT(model.size(), 0u);
  };

  run(true, 1);
  run(false, 1);
  run(false, 4);
}

// ---- subcompactions (max_subcompactions > 1) -------------------------------

TEST_F(DBTest, PureRangeDeleteWorkloadTriggersFlush) {
  // Pure range deletes buffer no arena bytes at all; the tombstone side
  // list must be charged against write_buffer_bytes or this loop grows the
  // list forever without ever tripping a flush.
  options_.write_buffer_bytes = 4 << 10;
  Open();
  for (uint64_t i = 0; i < 300; i++) {
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(db_->RangeDelete(WriteOptions(), EncodeKey(i * 10),
                                 EncodeKey(i * 10 + 5))
                    .ok());
  }
  EXPECT_GT(db_->stats().flushes.load(), 0u);
}

TEST_F(DBTest, SubcompactionTreesLogicallyIdenticalAcrossK) {
  // Property: the same seeded workload (puts, deletes, range deletes, with
  // FADE enabled) produces logically identical trees — entries, tombstone
  // coverage, delete keys — for max_subcompactions in {1, 2, 4}, in both
  // the deterministic inline engine (partitions run serially on the write
  // path) and on a 4-worker pool. Every run must equal one model of the
  // workload exactly, so the runs equal each other, and a bug that
  // corrupts *all* configs the same way is still caught.
  auto run = [&](bool inline_mode, int threads, int subcompactions) {
    SCOPED_TRACE("inline=" + std::to_string(inline_mode) + " threads=" +
                 std::to_string(threads) +
                 " subcompactions=" + std::to_string(subcompactions));
    auto base = NewMemEnv();
    IoCountingEnv env(base.get(), 1024);
    LogicalClock clock(1);
    Options opt = options_;
    opt.env = &env;
    opt.clock = &clock;
    opt.inline_compactions = inline_mode;
    opt.background_threads = threads;
    opt.max_subcompactions = subcompactions;
    opt.target_file_bytes = 4 << 10;  // several files per level: real splits
    opt.delete_persistence_threshold_micros = 500000;
    opt.file_picking = FilePickingPolicy::kMaxTombstones;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opt, "subeqdb", &db).ok());
    KeyModel model(0, 600, test::ReproHint());
    Random rnd(4242);
    std::string value(60, 's');
    for (uint64_t i = 0; i < 4000; i++) {
      clock.AdvanceMicros(5);
      uint64_t key = rnd.Uniform(600);
      double roll = rnd.NextDouble();
      const ModelOp op = roll < 0.66   ? ModelOp::Put(key, i, value)
                         : roll < 0.86 ? ModelOp::Delete(key)
                                       : ModelOp::RangeDelete(key, key + 7);
      ASSERT_TRUE(model.Write(db.get(), op).ok());
    }
    ASSERT_TRUE(db->CompactUntilQuiescent().ok());
    ASSERT_TRUE(model.CheckAll(db.get()));
    // Nothing outside the written key range either, and not nothing.
    ASSERT_TRUE(model.CheckScan(db.get(), 0, UINT64_MAX));
    EXPECT_GT(model.size(), 0u);
  };

  run(true, 1, 1);
  run(true, 1, 2);
  run(true, 1, 4);
  run(false, 4, 4);
}

class SubcompactionPoolDBTest : public PoolDBTest {
 protected:
  void SetUp() override {
    PoolDBTest::SetUp();
    options_.max_subcompactions = 4;
    options_.target_file_bytes = 4 << 10;
  }
};

TEST_F(SubcompactionPoolDBTest, SaturatedLoadSplitsMergesAndStaysConsistent) {
  Open();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 1500;
  std::string value(100, 'p');
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; i++) {
        uint64_t key = static_cast<uint64_t>(t) * kPerWriter + i;
        clock_.AdvanceMicros(1);
        ASSERT_TRUE(
            db_->Put(WriteOptions(), EncodeKey(key), key, value).ok());
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  // Multi-file merges actually fanned out...
  EXPECT_GT(db_->stats().partitioned_compactions.load(), 0u);
  EXPECT_GT(db_->stats().subcompactions_dispatched.load(),
            db_->stats().partitioned_compactions.load());
  // ...and the tree stayed a valid LSM with every key intact.
  Status invariants =
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  for (uint64_t k = 0; k < kWriters * kPerWriter; k++) {
    ASSERT_EQ(Get(k), value) << k;
  }
}

TEST_F(SubcompactionPoolDBTest, SubJobFailureAbortsSiblingsAndRecovers) {
  // Kill table-file writes once partitioned merges are in flight: the
  // failing partition must abort its siblings, the combined edit must
  // never install, and every partition's finished outputs must be removed
  // (reopen then reaps whatever a real crash would have left behind).
  Open();
  std::string value(200, 'f');
  uint64_t k = 0;
  for (; k < 1500; k++) {
    ASSERT_TRUE(Put(k, value).ok());
  }
  env_->InjectFaults(test::FailWritesAfter(25, ".sst"));
  Status s;
  for (; k < 20000; k++) {
    s = Put(k, value);
    if (!s.ok()) {
      break;
    }
  }
  EXPECT_FALSE(s.ok());
  const uint64_t acked = k;
  db_.reset();

  env_->ClearFaults();
  ASSERT_TRUE(Reopen().ok());
  for (uint64_t i = 0; i < acked; i++) {
    ASSERT_EQ(Get(i), value) << i;
  }
  // Every .sst on disk is referenced by the recovered version.
  EXPECT_EQ(test::CountTableFiles(env_.get(), "testdb"),
            test::ReferencedTableFiles(db_.get()));
  EXPECT_TRUE(
      static_cast<DBImpl*>(db_.get())->TEST_VerifyTreeInvariants().ok());
}

}  // namespace
}  // namespace lethe
