// Fault-injection suite (ctest label: "fault"; CI runs it under ASan and
// TSan). Covers the background-error state machine end to end:
//
//   - ErrorHandler unit tests: classification, degraded→read-only
//     escalation, probe-driven recovery, sticky corruption, and the
//     auto_recovery master switch.
//   - ENOSPC during flush and during a (partitioned) merge: writers stall
//     but never fail while the DB is degraded, no partial .sst is ever
//     installed, and the resume-time orphan sweep reclaims aborted outputs.
//   - WAL group-commit faults: a failed append/sync fails every writer in
//     the group and never advances the *published* sequence for an
//     unacknowledged write (appended-but-unsynced groups burn their
//     sequence numbers so a later replay cannot collide).
//   - WalRecoveryMode matrix: torn tails and interior checksum damage
//     against kAbsoluteConsistency / kTolerateTruncatedTail /
//     kSkipCorruptRecords.
//   - Manifest fallback to an older intact snapshot, and DB::Repair
//     rebuilding a manifest from the table files (quarantining damaged
//     ones) with unflushed WAL data preserved.
//   - SustainedFaultStress: faults arming and clearing mid-run against
//     concurrent writers with per-thread test::KeyModels; the DB must
//     round-trip kHealthy → kDegraded/kReadOnly → kHealthy automatically
//     and every acknowledged write must survive quiescence and reopen.
//
// Every stress-lane model failure prints the seed and the exact command that
// reruns it. LETHE_FAULT_SEEDS (default 3) and LETHE_FAULT_OPS (default
// 250) scale the stress lane; CI raises them, tier-1 keeps the defaults.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/lsm/db_impl.h"
#include "src/workload/generator.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using workload::EncodeKey;

using test::CountTableFiles;
using test::FindFileWithSuffix;
using test::KeyModel;
using test::ModelOp;
using test::ReferencedTableFiles;
using test::WaitFor;

int NumFaultSeeds() { return test::EnvInt("LETHE_FAULT_SEEDS", 3); }
int FaultOpsPerThread() { return test::EnvInt("LETHE_FAULT_OPS", 250); }

/// Waits for `db`'s error handler to report kHealthy.
bool WaitHealthy(DBImpl* db, int timeout_ms = 10000) {
  return WaitFor(
      [&] {
        return db->TEST_error_handler()->health() == DBHealth::kHealthy;
      },
      timeout_ms);
}

/// Overwrites `fname` with `contents` (MemEnv NewWritableFile truncates).
void RewriteFile(Env* env, const std::string& fname,
                 const std::string& contents) {
  ASSERT_TRUE(WriteStringToFile(env, Slice(contents), fname).ok()) << fname;
}

// ---- ErrorHandler unit tests ------------------------------------------------

TEST(ErrorHandlerTest, ClassifiesStatuses) {
  EXPECT_EQ(ErrorHandler::Classify(Status::NoSpace("disk full")),
            ErrorClass::kNoSpace);
  EXPECT_EQ(ErrorHandler::Classify(Status::IOError("eio")),
            ErrorClass::kTransient);
  EXPECT_EQ(ErrorHandler::Classify(Status::Busy("locked")),
            ErrorClass::kTransient);
  EXPECT_EQ(ErrorHandler::Classify(Status::Corruption("bad crc")),
            ErrorClass::kCorruption);
  EXPECT_EQ(ErrorHandler::Classify(Status::InvalidArgument("what")),
            ErrorClass::kFatal);
}

TEST(ErrorHandlerTest, TransientEscalatesThenProbeRecovers) {
  Statistics stats;
  std::atomic<bool> storage_ok{false};
  std::atomic<int> probes{0};
  std::atomic<int> resumes{0};
  std::atomic<int> notifies{0};

  ErrorHandler::RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_backoff_micros = 50;
  policy.max_backoff_micros = 200;
  ErrorHandler handler(
      policy, SystemClock::Default(), &stats,
      [&] {
        probes.fetch_add(1);
        return storage_ok.load() ? Status::OK() : Status::IOError("probe");
      },
      [&] { resumes.fetch_add(1); }, [&] { notifies.fetch_add(1); });

  EXPECT_EQ(handler.ReportError(BackgroundJobKind::kFlush,
                                Status::IOError("flush died")),
            DBHealth::kDegraded);
  EXPECT_TRUE(handler.cause().IsIOError());

  // Probes fail, the retry budget drains, and the DB falls to read-only —
  // but the recovery thread keeps probing at the max backoff.
  ASSERT_TRUE(WaitFor([&] { return handler.health() == DBHealth::kReadOnly; },
                      10000));
  EXPECT_GE(probes.load(), policy.max_retries);
  EXPECT_EQ(resumes.load(), 0);

  // The fault clears: the next probe succeeds and the handler resumes.
  storage_ok.store(true);
  EXPECT_EQ(handler.TEST_WaitForQuiescent(), DBHealth::kHealthy);
  EXPECT_EQ(resumes.load(), 1);
  EXPECT_GE(notifies.load(), 1);
  EXPECT_TRUE(handler.cause().ok());
  EXPECT_EQ(stats.bg_errors_by_class[0].load(), 1u);
  EXPECT_GE(stats.auto_recovery_attempts.load(), 1u);
  EXPECT_EQ(stats.auto_recovery_successes.load(), 1u);
  EXPECT_GT(stats.time_in_degraded_micros.load(), 0u);
}

TEST(ErrorHandlerTest, CorruptionIsStickyReadOnly) {
  Statistics stats;
  std::atomic<int> probes{0};
  ErrorHandler handler(
      ErrorHandler::RetryPolicy(), SystemClock::Default(), &stats,
      [&] {
        probes.fetch_add(1);
        return Status::OK();
      },
      [] {}, [] {});

  EXPECT_EQ(handler.ReportError(BackgroundJobKind::kCompaction,
                                Status::Corruption("bad page")),
            DBHealth::kReadOnly);
  // Sticky: no recovery thread, no probes, and a later transient error
  // cannot un-stick it.
  EXPECT_EQ(handler.TEST_WaitForQuiescent(), DBHealth::kReadOnly);
  EXPECT_EQ(handler.ReportError(BackgroundJobKind::kFlush,
                                Status::IOError("later")),
            DBHealth::kReadOnly);
  EXPECT_EQ(handler.TEST_WaitForQuiescent(), DBHealth::kReadOnly);
  EXPECT_EQ(probes.load(), 0);
  EXPECT_EQ(stats.bg_errors_by_class[2].load(), 1u);
  EXPECT_EQ(stats.auto_recovery_attempts.load(), 0u);
}

TEST(ErrorHandlerTest, AutoRecoveryOffPinsReadOnly) {
  Statistics stats;
  std::atomic<int> probes{0};
  ErrorHandler::RetryPolicy policy;
  policy.auto_recovery = false;
  ErrorHandler handler(
      policy, SystemClock::Default(), &stats,
      [&] {
        probes.fetch_add(1);
        return Status::OK();
      },
      [] {}, [] {});

  EXPECT_EQ(handler.ReportError(BackgroundJobKind::kFlush,
                                Status::IOError("flush died")),
            DBHealth::kReadOnly);
  EXPECT_EQ(handler.TEST_WaitForQuiescent(), DBHealth::kReadOnly);
  EXPECT_EQ(probes.load(), 0);
}

// ---- ENOSPC during background work ------------------------------------------

/// Background-mode Options tuned so error-handling cycles resolve in
/// milliseconds: tiny buffers (constant flush pressure) and short backoffs.
Options FaultyBackgroundOptions(IoCountingEnv* env, Clock* clock) {
  Options options;
  options.env = env;
  options.clock = clock;
  // The memtable arena allocates 4 KB blocks and ApproximateMemoryUsage is
  // block-granular, so an 8 KB buffer means "second block allocated" — a
  // 4 KB buffer would be full from the very first put.
  options.write_buffer_bytes = 8 << 10;
  options.target_file_bytes = 4 << 10;
  options.size_ratio = 3;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;
  options.inline_compactions = false;
  options.max_bg_error_retries = 8;
  options.bg_error_base_backoff_micros = 200;
  options.bg_error_max_backoff_micros = 5000;
  return options;
}

TEST(EnospcTest, FlushFailsWritersStallThenAutoRecover) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  // Flush attempts consume the retry budget while the fault is armed; keep
  // it effectively unbounded so this test exercises degraded-mode writes
  // and auto-recovery, not the read-only escalation.
  options.max_bg_error_retries = 1 << 20;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "enospc_flush_db", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  // The disk "fills up" for table files only: flushes die with ENOSPC while
  // WAL appends — and the health probe — keep succeeding.
  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kNoSpace;
  policy.fail_appends = true;
  policy.fail_creates = true;
  policy.path_substring = ".sst";
  env.InjectFaults(policy);

  // Fill one memtable (~29 × 140 B entries tip the 8 KB buffer into its
  // second arena block) so exactly one background flush fires and fails.
  // Writing much past the swap point would queue a second immutable
  // memtable and park this thread at the imm cap until the fault clears —
  // that stall is real engine behaviour, but not what this test probes.
  const std::string value(128, 'v');
  const uint64_t written = 36;
  for (uint64_t k = 0; k < written; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, value).ok())
        << "writes must not fail while flushes ENOSPC";
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        return db->stats().bg_errors_by_class[1].load() >= 1;  // kNoSpace
      },
      10000))
      << "flush never reported ENOSPC after " << written << " puts";

  // Degraded, not broken: a write issued while the fault is still armed
  // succeeds — the memtable still has room and the WAL is not the failing
  // component (writers only park at the imm cap, and only reject once
  // read-only).
  ASSERT_TRUE(
      db->Put(WriteOptions(), EncodeKey(100), 101, "during-fault").ok());

  // Space frees up: the recovery probe succeeds, flushing resumes, and the
  // DB heals without intervention.
  env.ClearFaults();
  ASSERT_TRUE(WaitFor(
      [&] {
        return impl->TEST_error_handler()->health() == DBHealth::kHealthy &&
               db->stats().flushes.load() >= 1;
      },
      10000))
      << "DB did not auto-recover after the fault cleared";
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForCompact().ok());

  EXPECT_GE(db->stats().auto_recovery_successes.load(), 1u);
  EXPECT_GT(db->stats().time_in_degraded_micros.load(), 0u);

  // Every acknowledged write survived, the tree is intact, and no partial
  // flush output was installed or left behind (the resume-time orphan sweep
  // reclaimed aborted outputs).
  ASSERT_TRUE(impl->TEST_VerifyTreeInvariants().ok());
  for (uint64_t k = 0; k < written; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    ASSERT_EQ(got, value) << k;
  }
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(100), &got).ok());
  ASSERT_EQ(got, "during-fault");
  EXPECT_EQ(CountTableFiles(&env, "enospc_flush_db"),
            ReferencedTableFiles(db.get()));
}

TEST(EnospcTest, PartitionedMergeFailsThenOrphansReclaimed) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  // As above: stay in degraded (not read-only) for the whole fault window.
  options.max_bg_error_retries = 1 << 20;
  options.target_file_bytes = 2 << 10;  // many files per level
  options.background_threads = 2;
  options.max_subcompactions = 4;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "enospc_merge_db", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  // Build a tree spanning at least two populated levels, so CompactAll has
  // a real (multi-file, partitionable) merge to do.
  const std::string value(64, 'm');
  int round = 0;
  auto populated_levels = [&] {
    int n = 0;
    for (const LevelSnapshot& level : db->GetLevelSnapshots()) {
      n += level.num_files > 0 ? 1 : 0;
    }
    return n;
  };
  do {
    for (uint64_t k = 0; k < 256; k++) {
      ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1,
                          value + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForCompact().ok());
    round++;
  } while (populated_levels() < 2 && round < 12);
  ASSERT_GE(populated_levels(), 2) << "setup failed to build a deep tree";

  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kNoSpace;
  policy.fail_appends = true;
  policy.fail_creates = true;
  policy.path_substring = ".sst";
  env.InjectFaults(policy);

  // The full-tree merge hits ENOSPC; its aborted partition outputs must not
  // be installed.
  Status compact = db->CompactAll();
  ASSERT_FALSE(compact.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return db->stats().bg_errors_by_class[1].load() >= 1; }, 10000));

  // Degraded accepts writes: the memtable and WAL are not the failing
  // component, so a put lands while the merge retries in the background.
  ASSERT_TRUE(
      db->Put(WriteOptions(), EncodeKey(300), 301, "during-fault").ok());

  env.ClearFaults();
  ASSERT_TRUE(WaitHealthy(impl));
  ASSERT_TRUE(db->WaitForCompact().ok());
  // The full-tree merge partitions like any other merge.
  const uint64_t partitioned_before =
      db->stats().partitioned_compactions.load();
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_GT(db->stats().partitioned_compactions.load(), partitioned_before);
  // Barrier: reap the graveyard (the final merge's retired inputs are
  // deferred GC, not leaked orphans) before counting files on disk.
  ASSERT_TRUE(db->WaitForCompact().ok());
  EXPECT_GE(db->stats().auto_recovery_successes.load(), 1u);

  // All data readable at its final round's value; aborted merge outputs
  // were swept (every .sst on disk is referenced by the live version).
  ASSERT_TRUE(impl->TEST_VerifyTreeInvariants().ok());
  for (uint64_t k = 0; k < 256; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    ASSERT_EQ(got, value + std::to_string(round - 1)) << k;
  }
  EXPECT_EQ(CountTableFiles(&env, "enospc_merge_db"),
            ReferencedTableFiles(db.get()));
}

TEST(EnospcTest, FailedCompactAllRemovesFinishedOutputs) {
  // A full-tree merge that finishes an output and then fails must delete
  // that output itself: nothing installed references it. The backoff is
  // long enough that no resume-time orphan sweep can tidy up first.
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  options.bg_error_base_backoff_micros = 60 * 1000 * 1000;
  options.bg_error_max_backoff_micros = 60 * 1000 * 1000;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "compact_all_outputs_db", &db).ok());
  const std::string value(64, 'c');
  for (uint64_t k = 0; k < 256; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForCompact().ok());
  ASSERT_EQ(CountTableFiles(&env, "compact_all_outputs_db"),
            ReferencedTableFiles(db.get()));

  // The memtable is empty, so every table created from here on is a
  // CompactAll output (~20 KB of data into 4 KB tables): the first create
  // succeeds and that output finishes when the second create fails.
  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kNoSpace;
  policy.fail_appends = false;
  policy.fail_creates = true;
  policy.start_after_ops = 1;
  policy.path_substring = ".sst";
  env.InjectFaults(policy);

  Status s = db->CompactAll();
  ASSERT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_EQ(CountTableFiles(&env, "compact_all_outputs_db"),
            ReferencedTableFiles(db.get()));
  env.ClearFaults();
}

TEST(InlineFlushFaultTest, AppliedWriteIsNotFailedByItsFlush) {
  // Inline mode runs flushes on the scheduler behind a barrier. A Put whose
  // batch is applied (WAL + memtable) but whose triggered flush then fails
  // is acknowledged: the flush failure belongs to the error state machine,
  // and the value must read back once the fault clears.
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  options.inline_compactions = true;
  options.max_bg_error_retries = 1 << 20;  // stay degraded while armed

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "inline_flush_fault_db", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  FaultPolicy policy;
  policy.fail_appends = true;
  policy.fail_creates = true;
  policy.path_substring = ".sst";
  env.InjectFaults(policy);

  // Write until the first flush fires and fails; that Put still succeeds.
  const std::string value(128, 'i');
  uint64_t written = 0;
  while (db->stats().bg_errors_by_class[0].load() == 0) {
    ASSERT_LT(written, 100u) << "no flush fired";
    ASSERT_TRUE(
        db->Put(WriteOptions(), EncodeKey(written), written, value).ok())
        << "put " << written << " was applied; its flush's failure is not its";
    written++;
  }

  env.ClearFaults();
  ASSERT_TRUE(WaitHealthy(impl))
      << "DB did not auto-recover after the fault cleared";
  ASSERT_TRUE(db->Flush().ok());
  for (uint64_t k = 0; k < written; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    EXPECT_EQ(got, value) << k;
  }
}

// ---- WAL group-commit faults ------------------------------------------------

TEST(WalGroupCommitFaultTest, FailedAppendDoesNotAdvanceSequence) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "wal_append_db", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  const SequenceNumber seq_before = impl->TEST_LastSequence();

  FaultPolicy policy;  // append dies atomically: nothing reaches the log
  policy.fail_appends = true;
  policy.path_substring = ".wal";
  env.InjectFaults(policy);
  ASSERT_FALSE(db->Put(WriteOptions(), EncodeKey(2), 2, "two").ok());
  env.ClearFaults();

  // Nothing was appended, so the sequence was neither published nor burned
  // and the failed write is invisible.
  EXPECT_EQ(impl->TEST_LastSequence(), seq_before);
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).IsNotFound());

  ASSERT_TRUE(WaitHealthy(impl));
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(3), 3, "three").ok());
  EXPECT_EQ(impl->TEST_LastSequence(), seq_before + 1);

  // Reopen: the failed write must not resurface; the acked ones must.
  db.reset();
  ASSERT_TRUE(DB::Open(options, "wal_append_db", &db).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).IsNotFound());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(3), &got).ok());
}

TEST(WalGroupCommitFaultTest, FailedSyncBurnsSequenceAndHidesWrite) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "wal_sync_db", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  const SequenceNumber seq_before = impl->TEST_LastSequence();

  FaultPolicy policy;  // the append lands, the sync fails
  policy.fail_appends = false;
  policy.fail_syncs = true;
  policy.path_substring = ".wal";
  env.InjectFaults(policy);
  WriteOptions sync_write;
  sync_write.sync = true;
  ASSERT_FALSE(db->Put(sync_write, EncodeKey(2), 2, "two").ok());
  env.ClearFaults();

  // The group's bytes are on the log, so its sequence number is burned
  // (published, preventing a replay collision) — but the unacknowledged
  // write stays invisible to readers.
  EXPECT_EQ(impl->TEST_LastSequence(), seq_before + 1);
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).IsNotFound());

  ASSERT_TRUE(WaitHealthy(impl));
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(3), 3, "three").ok());
  EXPECT_EQ(impl->TEST_LastSequence(), seq_before + 2);

  // On reopen the appended-but-unsynced record may legitimately resurface
  // (it reached the log); with MemEnv it deterministically does. The burned
  // sequence guarantees it replays *before* the later acked write.
  db.reset();
  ASSERT_TRUE(DB::Open(options, "wal_sync_db", &db).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_EQ(got, "two");
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(3), &got).ok());
  EXPECT_EQ(got, "three");
}

TEST(WalGroupCommitFaultTest, SyncFailureFailsEveryWriterInGroup) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "wal_group_db", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());
  const SequenceNumber seq_before = impl->TEST_LastSequence();

  FaultPolicy policy;
  policy.fail_appends = false;
  policy.fail_syncs = true;
  policy.path_substring = ".wal";
  env.InjectFaults(policy);
  env.SetAppendDelayMicros(2000);  // let followers pile into the group

  constexpr int kWriters = 4;
  std::vector<Status> results(kWriters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t] {
      WriteOptions sync_write;
      sync_write.sync = true;
      results[t] = db->Put(sync_write, EncodeKey(10 + t), t + 1,
                           "w" + std::to_string(t));
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  env.SetAppendDelayMicros(0);
  env.ClearFaults();

  // Every writer — leader and followers alike — saw the group fail, no
  // write became visible, and every appended group burned its sequences.
  for (int t = 0; t < kWriters; t++) {
    EXPECT_FALSE(results[t].ok()) << "writer " << t;
    std::string got;
    EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(10 + t), &got).IsNotFound())
        << "writer " << t;
  }
  EXPECT_EQ(impl->TEST_LastSequence(), seq_before + kWriters);

  ASSERT_TRUE(WaitHealthy(impl));
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(99), 99, "after").ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(99), &got).ok());
}

// ---- WAL recovery modes -----------------------------------------------------

class WalRecoveryModeTest : public ::testing::Test {
 protected:
  /// Opens a fresh DB, writes three records (one commit group each), and
  /// closes it with the memtable unflushed — all three live only in the WAL.
  void WriteThreeRecords(const std::string& dbname) {
    env_ = NewMemEnv();
    options_ = Options();
    options_.env = env_.get();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname, &db).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(2), 2, "two").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(3), 3, "three").ok());
    db.reset();
    wal_path_ = FindFileWithSuffix(env_.get(), dbname, ".wal");
    ASSERT_FALSE(wal_path_.empty());
    ASSERT_TRUE(ReadFileToString(env_.get(), wal_path_, &wal_bytes_).ok());
    ASSERT_GT(wal_bytes_.size(), 16u);
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::string wal_path_;
  std::string wal_bytes_;
};

TEST_F(WalRecoveryModeTest, TornTailToleratedOnlyByDefaultMode) {
  WriteThreeRecords("wal_torn_db");
  // Chop into the last record's payload: the torn frame a crash leaves.
  RewriteFile(env_.get(), wal_path_,
              wal_bytes_.substr(0, wal_bytes_.size() - 3));

  Options strict = options_;
  strict.wal_recovery_mode = WalRecoveryMode::kAbsoluteConsistency;
  std::unique_ptr<DB> db;
  Status s = DB::Open(strict, "wal_torn_db", &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();

  // Default (kTolerateTruncatedTail): the intact prefix replays, the torn
  // record is dropped.
  ASSERT_TRUE(DB::Open(options_, "wal_torn_db", &db).ok());
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(3), &got).IsNotFound());
}

TEST_F(WalRecoveryModeTest, InteriorDamageNeedsSkipCorruptRecords) {
  WriteThreeRecords("wal_flip_db");
  // Flip a byte inside the *first* record's payload (frame = 4-byte CRC +
  // 1-byte length varint + payload): interior damage, not a torn tail.
  std::string damaged = wal_bytes_;
  damaged[6] = static_cast<char>(damaged[6] ^ 0xff);
  RewriteFile(env_.get(), wal_path_, damaged);

  // Both strict and default modes refuse interior checksum damage.
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "wal_flip_db", &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();

  // kSkipCorruptRecords resynchronizes past the damaged frame and salvages
  // the rest, counting what it dropped.
  Options salvage = options_;
  salvage.wal_recovery_mode = WalRecoveryMode::kSkipCorruptRecords;
  ASSERT_TRUE(DB::Open(salvage, "wal_flip_db", &db).ok());
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).IsNotFound());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(3), &got).ok());
  EXPECT_GE(db->stats().wal_records_skipped_corrupt.load(), 1u);
  EXPECT_GT(db->stats().wal_bytes_skipped_corrupt.load(), 0u);
}

// ---- manifest fallback ------------------------------------------------------

TEST(ManifestFallbackTest, OlderIntactManifestRecoversTheTree) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "manifest_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // Simulate a crash that left a stale-but-intact older manifest behind,
  // then damage the current one.
  std::string current;
  ASSERT_TRUE(
      ReadFileToString(env.get(), "manifest_db/CURRENT", &current).ok());
  const std::string manifest_path =
      "manifest_db/" + current.substr(0, current.find('\n'));
  std::string manifest_bytes;
  ASSERT_TRUE(
      ReadFileToString(env.get(), manifest_path, &manifest_bytes).ok());
  ASSERT_GT(manifest_bytes.size(), 16u);
  uint64_t current_number = 0;
  ASSERT_EQ(sscanf(current.c_str(), "MANIFEST-%" SCNu64, &current_number), 1);
  RewriteFile(env.get(), ManifestFileName("manifest_db", current_number - 1),
              manifest_bytes);
  std::string damaged = manifest_bytes;
  damaged[12] = static_cast<char>(damaged[12] ^ 0xff);
  RewriteFile(env.get(), manifest_path, damaged);

  // Absolute consistency refuses the fallback.
  Options strict = options;
  strict.wal_recovery_mode = WalRecoveryMode::kAbsoluteConsistency;
  Status s = DB::Open(strict, "manifest_db", &db);
  ASSERT_FALSE(s.ok());

  // Default mode falls back to the older intact snapshot and serves the
  // flushed data.
  ASSERT_TRUE(DB::Open(options, "manifest_db", &db).ok());
  EXPECT_GE(db->stats().manifest_fallbacks.load(), 1u);
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_EQ(got, "one");
}

TEST(ManifestFallbackTest, TransientReadErrorSurfacesInsteadOfFallingBack) {
  auto base = NewMemEnv();
  IoCountingEnv env(base.get());
  Options options;
  options.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "transient_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // Keep a stale-but-intact snapshot that predates key 2's table…
  std::string current;
  ASSERT_TRUE(
      ReadFileToString(&env, "transient_db/CURRENT", &current).ok());
  std::string stale_bytes;
  ASSERT_TRUE(ReadFileToString(
                  &env, "transient_db/" + current.substr(0, current.find('\n')),
                  &stale_bytes)
                  .ok());

  // …then acknowledge newer state only the current manifest references.
  ASSERT_TRUE(DB::Open(options, "transient_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(2), 2, "two").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();
  ASSERT_TRUE(
      ReadFileToString(&env, "transient_db/CURRENT", &current).ok());
  uint64_t current_number = 0;
  ASSERT_EQ(sscanf(current.c_str(), "MANIFEST-%" SCNu64, &current_number), 1);
  RewriteFile(&env, ManifestFileName("transient_db", current_number - 1),
              stale_bytes);

  // One transient EIO on the first read of the current manifest. Open must
  // surface it — NOT silently fall back to the stale snapshot and let the
  // orphan sweep destroy key 2's acked table.
  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kIOError;
  policy.fail_appends = false;
  policy.fail_reads = true;
  policy.path_substring = "MANIFEST-";
  policy.fail_window_ops = 1;
  env.InjectFaults(policy);
  Status s = DB::Open(options, "transient_db", &db);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  env.ClearFaults();

  // The retry reads the intact manifest and serves everything acknowledged.
  ASSERT_TRUE(DB::Open(options, "transient_db", &db).ok());
  EXPECT_EQ(db->stats().manifest_fallbacks.load(), 0u);
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_EQ(got, "two");
  EXPECT_TRUE(FindFileWithSuffix(&env, "transient_db", ".bad").empty());
}

TEST(ManifestFallbackTest, FallbackQuarantinesTablesTheLostManifestHeld) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "fallback_q_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  std::string current;
  ASSERT_TRUE(
      ReadFileToString(env.get(), "fallback_q_db/CURRENT", &current).ok());
  std::string stale_bytes;
  ASSERT_TRUE(
      ReadFileToString(env.get(),
                       "fallback_q_db/" + current.substr(0, current.find('\n')),
                       &stale_bytes)
          .ok());

  ASSERT_TRUE(DB::Open(options, "fallback_q_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(2), 2, "two").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // Plant the stale snapshot, then corrupt the current manifest so the open
  // genuinely must fall back.
  ASSERT_TRUE(
      ReadFileToString(env.get(), "fallback_q_db/CURRENT", &current).ok());
  const std::string manifest_path =
      "fallback_q_db/" + current.substr(0, current.find('\n'));
  uint64_t current_number = 0;
  ASSERT_EQ(sscanf(current.c_str(), "MANIFEST-%" SCNu64, &current_number), 1);
  RewriteFile(env.get(), ManifestFileName("fallback_q_db", current_number - 1),
              stale_bytes);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(env.get(), manifest_path, &bytes).ok());
  ASSERT_GT(bytes.size(), 16u);
  bytes[12] = static_cast<char>(bytes[12] ^ 0xff);
  RewriteFile(env.get(), manifest_path, bytes);

  ASSERT_TRUE(DB::Open(options, "fallback_q_db", &db).ok());
  EXPECT_GE(db->stats().manifest_fallbacks.load(), 1u);
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).IsNotFound());
  // Key 2's table is stranded by the rollback but NOT destroyed: the sweep
  // quarantined it for DB::Repair to readopt (after renaming .bad back).
  EXPECT_FALSE(
      FindFileWithSuffix(env.get(), "fallback_q_db", ".sst.bad").empty())
      << "stranded table was deleted instead of quarantined";
}

// ---- DB::Repair -------------------------------------------------------------

class RepairTest : public ::testing::Test {
 protected:
  /// Seeds a DB with flushed keys 0..9 ("flushed") and unflushed keys
  /// 10..19 ("walonly", alive only in the WAL), then closes it.
  void SeedDb(const std::string& dbname) {
    env_ = NewMemEnv();
    options_ = Options();
    options_.env = env_.get();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname, &db).ok());
    for (uint64_t k = 0; k < 10; k++) {
      ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, "flushed").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (uint64_t k = 10; k < 20; k++) {
      ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, "walonly").ok());
    }
    db.reset();
  }

  void CorruptManifest(const std::string& dbname) {
    std::string current;
    ASSERT_TRUE(
        ReadFileToString(env_.get(), dbname + "/CURRENT", &current).ok());
    const std::string manifest_path =
        dbname + "/" + current.substr(0, current.find('\n'));
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(env_.get(), manifest_path, &bytes).ok());
    ASSERT_GT(bytes.size(), 16u);
    bytes[12] = static_cast<char>(bytes[12] ^ 0xff);
    RewriteFile(env_.get(), manifest_path, bytes);
  }

  std::unique_ptr<Env> env_;
  Options options_;
};

TEST_F(RepairTest, RebuildsManifestFromTablesAndPreservesWal) {
  SeedDb("repair_db");
  CorruptManifest("repair_db");

  // With the sole manifest damaged and no fallback, Open fails…
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "repair_db", &db);
  ASSERT_FALSE(s.ok());

  // …and Repair rebuilds one from the table files, keeping the WAL.
  ASSERT_TRUE(DB::Repair(options_, "repair_db").ok());
  ASSERT_TRUE(DB::Open(options_, "repair_db", &db).ok());
  for (uint64_t k = 0; k < 10; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    ASSERT_EQ(got, "flushed") << k;
  }
  for (uint64_t k = 10; k < 20; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    ASSERT_EQ(got, "walonly") << k;
  }
  ASSERT_TRUE(
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants().ok());
}

TEST_F(RepairTest, QuarantinesTablesWithDamagedMetadata) {
  SeedDb("repair_bad_db");

  // Damage the flushed table's metadata checksum (footer meta_crc), then
  // the manifest: Repair must quarantine the table and still salvage the
  // WAL-resident keys.
  const std::string sst = FindFileWithSuffix(env_.get(), "repair_bad_db",
                                             ".sst");
  ASSERT_FALSE(sst.empty());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(env_.get(), sst, &bytes).ok());
  ASSERT_GT(bytes.size(), 48u);
  bytes[bytes.size() - 10] = static_cast<char>(bytes[bytes.size() - 10] ^ 0xff);
  RewriteFile(env_.get(), sst, bytes);
  CorruptManifest("repair_bad_db");

  ASSERT_TRUE(DB::Repair(options_, "repair_bad_db").ok());
  EXPECT_FALSE(
      FindFileWithSuffix(env_.get(), "repair_bad_db", ".bad").empty())
      << "damaged table was not quarantined";

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "repair_bad_db", &db).ok());
  for (uint64_t k = 0; k < 10; k++) {
    std::string got;
    EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).IsNotFound())
        << "key " << k << " came from a quarantined table";
  }
  for (uint64_t k = 10; k < 20; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    ASSERT_EQ(got, "walonly") << k;
  }

  // A second Repair must not misread the quarantined "<n>.sst.bad" file as
  // a WAL or table (sscanf counts conversions, not trailing literals — the
  // parser needs the exact-name round-trip), and must leave it quarantined.
  ASSERT_TRUE(DB::Repair(options_, "repair_bad_db").ok());
  EXPECT_FALSE(
      FindFileWithSuffix(env_.get(), "repair_bad_db", ".sst.bad").empty());
  EXPECT_TRUE(
      FindFileWithSuffix(env_.get(), "repair_bad_db", ".bad.bad").empty());
  ASSERT_TRUE(DB::Open(options_, "repair_bad_db", &db).ok());
  for (uint64_t k = 10; k < 20; k++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    ASSERT_EQ(got, "walonly") << k;
  }
}

TEST_F(RepairTest, LevelingPlacementPreservesRecencyOfOverlappingTables) {
  // Three standalone overlapping tables, as a leveling tree's L0/L1/L2 runs
  // would present to Repair (seeded via tiering so each flush keeps its own
  // file): oldest O=[80,90], newer N=[10,90] overwriting key 90, newest
  // A=[10,20] overlapping N but NOT O.
  env_ = NewMemEnv();
  options_ = Options();
  options_.env = env_.get();
  Options tiering = options_;
  tiering.compaction_style = CompactionStyle::kTiering;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(tiering, "repair_recency_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(80), 80, "old").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(90), 90, "old").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(10), 10, "mid").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(90), 90, "new").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(10), 10, "newest").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(20), 20, "newest").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();
  ASSERT_EQ(CountTableFiles(env_.get(), "repair_recency_db"), 3u);

  CorruptManifest("repair_recency_db");
  ASSERT_TRUE(DB::Repair(options_, "repair_recency_db").ok());

  // O overlaps nothing at L0, but placing it there would shadow N's newer
  // value for key 90 — it must land strictly below N.
  ASSERT_TRUE(DB::Open(options_, "repair_recency_db", &db).ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(90), &got).ok());
  EXPECT_EQ(got, "new");
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(10), &got).ok());
  EXPECT_EQ(got, "newest");
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(20), &got).ok());
  EXPECT_EQ(got, "newest");
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(80), &got).ok());
  EXPECT_EQ(got, "old");
  ASSERT_TRUE(
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants().ok());
}

// ---- sustained-fault stress -------------------------------------------------
//
// Writer threads own disjoint key slices, each checked against its own
// KeyModel, while the main thread arms and clears fault policies (EIO /
// ENOSPC / short writes, against table files, the WAL, or everything). A
// failed write goes to the model as Failed(): the write was rejected, but
// if its group's bytes reached the WAL before the failure (burned
// sequence), the record may legitimately resurface on replay.

struct FaultStressState {
  DB* db = nullptr;
  LogicalClock* clock = nullptr;
  std::atomic<bool> failed{false};
};

constexpr uint64_t kFaultKeysPerThread = 128;
constexpr int kFaultThreads = 3;

void RunFaultWorker(FaultStressState* state, int seed, int thread_id,
                    KeyModel* model) {
  DB* db = state->db;
  Random rnd(static_cast<uint64_t>(seed) * 7919 + thread_id);
  const uint64_t key_lo = thread_id * kFaultKeysPerThread;
  uint64_t local_ts = 0;
  const int ops = FaultOpsPerThread();

  for (int i = 0; i < ops && !state->failed.load(std::memory_order_relaxed);
       i++) {
    state->clock->AdvanceMicros(7);
    const double roll = rnd.NextDouble();
    const uint64_t k = key_lo + rnd.Uniform(kFaultKeysPerThread);

    // Writes may fail while a fault is armed; the model records either
    // outcome, so the status needs no handling here.
    if (roll < 0.5) {  // put
      const uint64_t dk = (thread_id + 1) * (1ull << 40) + (++local_ts);
      const std::string value = "v" + std::to_string(seed) + "-" +
                                std::to_string(thread_id) + "-" +
                                std::to_string(i);
      (void)model->Write(db, ModelOp::Put(k, dk, value));
    } else if (roll < 0.7) {  // delete
      (void)model->Write(db, ModelOp::Delete(k));
    } else {  // point lookup: exact vs the model (failed writes were never
              // applied in-process — they matter only across replay)
      ::testing::AssertionResult r = model->CheckGet(db, k);
      if (!r) {
        ADD_FAILURE() << r.message();
        state->failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

class SustainedFaultTest : public ::testing::TestWithParam<int> {};

TEST_P(SustainedFaultTest, FaultsFireAndClearMidRun) {
  const int seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Random config_rnd(static_cast<uint64_t>(seed) * 31337);

  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  options.write_buffer_bytes = 8 << 10;
  options.background_threads = config_rnd.Bernoulli(0.5) ? 2 : 4;
  options.max_subcompactions = config_rnd.Bernoulli(0.5) ? 4 : 1;
  options.compaction_style = config_rnd.Bernoulli(0.5)
                                 ? CompactionStyle::kLeveling
                                 : CompactionStyle::kTiering;
  options.max_bg_error_retries = 4;

  const std::string dbname = "fault_stress_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  FaultStressState state;
  state.db = db.get();
  state.clock = &clock;
  std::vector<KeyModel> models;
  for (int t = 0; t < kFaultThreads; t++) {
    models.emplace_back(t * kFaultKeysPerThread,
                        (t + 1) * kFaultKeysPerThread,
                        "seed=" + std::to_string(seed) + " thread=" +
                            std::to_string(t) + " (" +
                            test::ReproHint("LETHE_FAULT_SEEDS", seed) + ")");
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kFaultThreads; t++) {
    threads.emplace_back(RunFaultWorker, &state, seed, t, &models[t]);
  }

  // Fault cycles against the live DB. Short writes are confined to table
  // files: a short-written WAL frame would be *interior* corruption after
  // later groups append behind it, which the default recovery mode
  // rightly refuses — that path is covered by WalRecoveryModeTest.
  const int cycles = 5;
  for (int c = 0; c < cycles; c++) {
    FaultPolicy policy;
    switch (c % 3) {
      case 0:
        policy.kind = FaultPolicy::Kind::kNoSpace;
        policy.path_substring = config_rnd.Bernoulli(0.5) ? ".sst" : "";
        break;
      case 1:
        policy.kind = FaultPolicy::Kind::kIOError;
        policy.path_substring =
            config_rnd.Bernoulli(0.5) ? ".wal" : ".sst";
        break;
      default:
        policy.kind = FaultPolicy::Kind::kShortWrite;
        policy.path_substring = ".sst";
        break;
    }
    policy.fail_appends = true;
    policy.fail_creates = config_rnd.Bernoulli(0.5);
    policy.probability = 0.3 + 0.7 * config_rnd.NextDouble();
    if (config_rnd.Bernoulli(0.5)) {
      policy.fail_window_ops = 30;  // transient: clears on its own
    }
    policy.seed = static_cast<uint64_t>(seed) * 101 + c;
    env.InjectFaults(policy);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    env.ClearFaults();
    // The DB must heal on its own before the next storm.
    ASSERT_TRUE(WaitHealthy(impl, 30000))
        << "seed=" << seed << " cycle=" << c << " health="
        << DBHealthName(impl->TEST_error_handler()->health()) << " cause="
        << impl->TEST_error_handler()->cause().ToString();
  }

  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(state.failed.load()) << "seed=" << seed;

  ASSERT_TRUE(WaitHealthy(impl, 30000))
      << "seed=" << seed;
  ASSERT_TRUE(db->WaitForCompact().ok()) << "seed=" << seed;
  Status invariants = impl->TEST_VerifyTreeInvariants();
  ASSERT_TRUE(invariants.ok()) << "seed=" << seed << ": "
                               << invariants.ToString();

  // Ended healthy: if any background error fired, at least one probe-driven
  // recovery must have succeeded.
  uint64_t bg_errors = 0;
  for (const auto& per_class : db->stats().bg_errors_by_class) {
    bg_errors += per_class.load();
  }
  if (bg_errors > 0) {
    EXPECT_GE(db->stats().auto_recovery_successes.load(), 1u)
        << "seed=" << seed;
    EXPECT_GT(db->stats().time_in_degraded_micros.load(), 0u)
        << "seed=" << seed;
  }

  // Pre-reopen: in-process state matches the models exactly (failed writes
  // were never applied), and aborted outputs were swept.
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get())) << "pre-reopen";
  }
  EXPECT_EQ(CountTableFiles(&env, dbname), ReferencedTableFiles(db.get()))
      << "seed=" << seed << ": unreferenced .sst left on disk";

  // Reopen: a failed write whose group bytes reached the WAL may replay, so
  // each key must resolve to its acknowledged state or a failed write's
  // outcome.
  db.reset();
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok()) << "seed=" << seed;
  for (const KeyModel& model : models) {
    ASSERT_TRUE(model.CheckAll(db.get(), KeyModel::kAllowAmbiguous))
        << "post-reopen";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SustainedFaultTest,
                         ::testing::Range(1, NumFaultSeeds() + 1));

}  // namespace
}  // namespace lethe
