// Fault-injection suite (ctest label: "fault"; CI runs it under ASan and
// TSan). Covers the background-error state machine end to end:
//
//   - ErrorHandler unit tests: classification, degraded→read-only
//     escalation, probe-driven recovery, sticky corruption, and the
//     auto_recovery master switch. DB-level tests shorten the engine's
//     fixed retry schedule after Open through the handler's test seam
//     (UseFastRetries).
//   - ENOSPC during flush and during a (partitioned) merge: writers stall
//     but never fail while the DB is degraded, no partial .sst is ever
//     installed, and the resume-time orphan sweep reclaims aborted outputs.
//   - WAL group-commit faults: a failed append/sync fails every writer in
//     the group and never advances the *published* sequence for an
//     unacknowledged write (appended-but-unsynced groups burn their
//     sequence numbers so a later replay cannot collide).
//   - WAL recovery's one policy: a torn tail ends the newest log; interior
//     damage, or a torn tail in an older log, fails Open with a message
//     naming DB::Repair, and Repair's WAL salvage lets the next Open
//     replay the intact groups. A frame is one commit group, so a torn or
//     damaged WriteBatch replays all or nothing.
//   - The MANIFEST roll: over a KiWi retention window of SRDs the manifest
//     stays within one snapshot plus the roll limit, a failure at any roll
//     step leaves the old manifest in use, and pruning the seq→time map
//     keeps every live tombstone's time.
//   - The MANIFEST follows the WAL's rule: a damaged one fails Open with a
//     Corruption naming DB::Repair, even beside an older intact one, and a
//     transient read error surfaces as it is; names that only look like
//     manifests are never read. DB::Repair rebuilds a manifest from the
//     table files (quarantining damaged ones, keeping range deletes,
//     placing each key's newest version first) with unflushed WAL data
//     preserved.
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
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/format/sstable_builder.h"
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

TEST(ErrorHandlerTest, HealthStaysDegradedUntilResumeReturns) {
  // The owner's resume clears the error its calls return; health() must not
  // read healthy before that has happened.
  Statistics stats;
  ErrorHandler::RetryPolicy policy;
  policy.base_backoff_micros = 1;
  policy.max_backoff_micros = 1;
  ErrorHandler* self = nullptr;
  std::vector<DBHealth> seen_in_resume;  // written by the recovery thread
  ErrorHandler handler(
      policy, SystemClock::Default(), &stats, [] { return Status::OK(); },
      [&] { seen_in_resume.push_back(self->health()); }, [] {});
  self = &handler;

  handler.ReportError(BackgroundJobKind::kFlush, Status::IOError("eio"));
  EXPECT_EQ(handler.TEST_WaitForQuiescent(), DBHealth::kHealthy);
  ASSERT_EQ(seen_in_resume.size(), 1u);
  EXPECT_EQ(seen_in_resume[0], DBHealth::kDegraded);
  EXPECT_EQ(stats.auto_recovery_successes.load(), 1u);
}

TEST(ErrorHandlerTest, ErrorDuringResumeKeepsDegraded) {
  // The first resume's retried job fails again. The handler must not
  // publish healthy over that error: it stays degraded and probes again.
  Statistics stats;
  ErrorHandler::RetryPolicy policy;
  policy.base_backoff_micros = 1;
  policy.max_backoff_micros = 1;
  ErrorHandler* self = nullptr;
  std::atomic<int> probes{0};
  std::promise<void> second_probe_entered;
  std::promise<void> release_second_probe;
  std::shared_future<void> released = release_second_probe.get_future();
  int resumes = 0;  // recovery thread only
  ErrorHandler handler(
      policy, SystemClock::Default(), &stats,
      [&] {
        if (probes.fetch_add(1) == 1) {
          second_probe_entered.set_value();
          released.wait();
        }
        return Status::OK();
      },
      [&] {
        if (resumes++ == 0) {
          self->ReportError(BackgroundJobKind::kFlush,
                            Status::IOError("retried flush died"));
        }
      },
      [] {});
  self = &handler;

  handler.ReportError(BackgroundJobKind::kFlush, Status::IOError("eio"));
  // The recovery thread is parked inside its second probe, after the first
  // resume reported the new error.
  second_probe_entered.get_future().wait();
  EXPECT_EQ(handler.health(), DBHealth::kDegraded);
  EXPECT_FALSE(handler.cause().ok());
  EXPECT_EQ(stats.auto_recovery_successes.load(), 0u);

  release_second_probe.set_value();
  EXPECT_EQ(handler.TEST_WaitForQuiescent(), DBHealth::kHealthy);
  EXPECT_EQ(resumes, 2);
  EXPECT_EQ(stats.auto_recovery_successes.load(), 1u);
}

// ---- ENOSPC during background work ------------------------------------------

/// Background-mode Options with tiny buffers: constant flush pressure.
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
  return options;
}

/// Shortens `db`'s retry schedule (the engine runs 8 retries at 1 ms–1 s
/// backoff) so error-handling cycles resolve in milliseconds. Set after
/// Open, through the error handler's test seam.
void UseFastRetries(DB* db, int max_retries = 8,
                    uint64_t base_backoff_micros = 200,
                    uint64_t max_backoff_micros = 5000) {
  ErrorHandler::RetryPolicy policy;
  policy.max_retries = max_retries;
  policy.base_backoff_micros = base_backoff_micros;
  policy.max_backoff_micros = max_backoff_micros;
  static_cast<DBImpl*>(db)->TEST_error_handler()->TEST_SetRetryPolicy(policy);
}

TEST(EnospcTest, FlushFailsWritersStallThenAutoRecover) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "enospc_flush_db", &db).ok());
  // Flush attempts consume the retry budget while the fault is armed; keep
  // it effectively unbounded so this test exercises degraded-mode writes
  // and auto-recovery, not the read-only escalation.
  UseFastRetries(db.get(), 1 << 20);
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
  options.target_file_bytes = 2 << 10;  // many files per level
  options.background_threads = 2;
  options.max_subcompactions = 4;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "enospc_merge_db", &db).ok());
  // As above: stay in degraded (not read-only) for the whole fault window.
  UseFastRetries(db.get(), 1 << 20);
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

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "compact_all_outputs_db", &db).ok());
  UseFastRetries(db.get(), 8, 60 * 1000 * 1000, 60 * 1000 * 1000);
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

// Two sealed memtables that overlap L0 flush as one group: one merge, one
// VersionEdit. When that edit's MANIFEST append fails, neither memtable
// installs, both WALs stay, and a reopen replays both and loses nothing.
TEST(GroupedFlushFaultTest, FailedInstallKeepsBothWalsForReplay) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  const std::string dbname = "grouped_flush_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  UseFastRetries(db.get(), 1 << 20);  // stay degraded while armed
  KeyModel model(0, 4096, "grouped flush fault");
  auto put = [&](uint64_t key) {
    clock.AdvanceMicros(1);
    return model.Write(db.get(),
                       ModelOp::Put(key, key, std::string(100, 'v')));
  };
  auto wals = [&] { return test::WalNumbers(&env, dbname).size(); };

  for (uint64_t key = 0; key < 3600; key += 120) {
    ASSERT_TRUE(put(key).ok());
  }
  ASSERT_TRUE(db->Flush().ok());  // one L0 file spanning [0, 3480]
  const uint64_t memtables = db->stats().flush_memtables.load();
  uint64_t key = 1;
  while (wals() < 2) {  // odd keys overlap the L0 file: this one is held
    ASSERT_TRUE(put(key += 2).ok());
  }
  FaultPolicy policy;
  policy.fail_appends = true;
  policy.path_substring = "MANIFEST-";
  env.InjectFaults(policy);
  while (wals() < 3) {  // the second seal starts the grouped flush
    ASSERT_TRUE(put(key += 2).ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return db->stats().bg_errors_by_class[0].load() > 0; }, 10000));
  EXPECT_GE(db->stats().flush_memtables.load(), memtables + 2);
  EXPECT_EQ(wals(), 3u);
  EXPECT_TRUE(model.CheckAll(db.get()));

  db.reset();  // close while armed: nothing can install
  EXPECT_EQ(wals(), 3u);
  env.ClearFaults();
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  EXPECT_TRUE(model.CheckAll(db.get()));
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  EXPECT_TRUE(model.CheckAll(db.get()));
}

TEST(GroupedFlushFaultTest, FailedWalRotationLeavesMemtableActive) {
  // A seal whose fresh WAL cannot be created fails before the memtable is
  // frozen: it stays the active buffer, and a later write anywhere in the
  // key space — outside the span it held at the failed seal too — reads
  // back.
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  const std::string dbname = "failed_rotation_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  for (uint64_t k = 100; k < 110; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, "v").ok());
  }

  FaultPolicy policy;
  policy.fail_creates = true;
  policy.path_substring = ".wal";
  env.InjectFaults(policy);
  ASSERT_FALSE(db->Flush().ok());
  env.ClearFaults();

  std::string got;
  for (uint64_t k : {5u, 100u, 5000u}) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, "after").ok());
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    EXPECT_EQ(got, "after") << k;
  }
  ASSERT_TRUE(db->Flush().ok());  // the retried seal records the full span
  for (uint64_t k : {5u, 100u, 109u, 5000u}) {
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).ok()) << k;
    EXPECT_EQ(got, k == 109 ? "v" : "after") << k;
  }
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

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "inline_flush_fault_db", &db).ok());
  UseFastRetries(db.get(), 1 << 20);  // stay degraded while armed
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
  UseFastRetries(db.get());
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
  UseFastRetries(db.get());
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
  UseFastRetries(db.get());
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

// ---- WAL recovery: one replay policy, salvage through DB::Repair ---------

class WalRecoveryTest : public ::testing::Test {
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

TEST_F(WalRecoveryTest, TornTailInNewestWalReplaysIntactPrefix) {
  WriteThreeRecords("wal_torn_db");
  // Chop into the last record's payload: the torn frame a crash leaves.
  RewriteFile(env_.get(), wal_path_,
              wal_bytes_.substr(0, wal_bytes_.size() - 3));

  // The intact prefix replays, the torn record is dropped.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "wal_torn_db", &db).ok());
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(3), &got).IsNotFound());
}

TEST_F(WalRecoveryTest, InteriorDamageFailsOpenUntilRepair) {
  WriteThreeRecords("wal_flip_db");
  // Flip a byte inside the *first* record's payload (frame = 4-byte CRC +
  // 1-byte length varint + payload): interior damage, not a torn tail.
  std::string damaged = wal_bytes_;
  damaged[6] = static_cast<char>(damaged[6] ^ 0xff);
  RewriteFile(env_.get(), wal_path_, damaged);

  // Open refuses to skip a record — it could be a tombstone — and names
  // the salvage step.
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "wal_flip_db", &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("DB::Repair"), std::string::npos)
      << s.ToString();

  // DB::Repair drops the damaged frame and keeps the rest; Open then
  // replays the salvaged log.
  ASSERT_TRUE(DB::Repair(options_, "wal_flip_db").ok());
  ASSERT_TRUE(DB::Open(options_, "wal_flip_db", &db).ok());
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).IsNotFound());
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_EQ(got, "two");
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(3), &got).ok());
  EXPECT_EQ(got, "three");
}

// A WriteBatch is one commit group and so one WAL frame: a crash that tears
// the frame drops the whole batch at the next Open, never a prefix of it.
TEST_F(WalRecoveryTest, TornBatchReplaysAllOrNothing) {
  env_ = NewMemEnv();
  options_.env = env_.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "wal_torn_batch_db", &db).ok());
  WriteBatch batch;
  batch.Put(EncodeKey(1), 1, "one");
  batch.Put(EncodeKey(2), 2, "two");
  batch.Put(EncodeKey(3), 3, "three");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  db.reset();
  wal_path_ = FindFileWithSuffix(env_.get(), "wal_torn_batch_db", ".wal");
  ASSERT_FALSE(wal_path_.empty());
  ASSERT_TRUE(ReadFileToString(env_.get(), wal_path_, &wal_bytes_).ok());
  RewriteFile(env_.get(), wal_path_,
              wal_bytes_.substr(0, wal_bytes_.size() - 3));

  ASSERT_TRUE(DB::Open(options_, "wal_torn_batch_db", &db).ok());
  std::string got;
  const bool first = db->Get(ReadOptions(), EncodeKey(1), &got).ok();
  const bool last = db->Get(ReadOptions(), EncodeKey(3), &got).ok();
  EXPECT_EQ(first, last) << "a torn batch replayed in part";
  EXPECT_FALSE(first) << "the torn batch's frame replayed";
  EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).IsNotFound());
}

// DB::Repair keeps or drops a commit group whole: a byte flipped inside a
// batch's frame drops every op of the batch, and the group logged after it
// survives.
TEST_F(WalRecoveryTest, RepairDropsDamagedBatchWhole) {
  env_ = NewMemEnv();
  options_.env = env_.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "wal_flip_batch_db", &db).ok());
  WriteBatch batch;
  batch.Put(EncodeKey(1), 1, "one");
  batch.Put(EncodeKey(2), 2, "two");
  batch.Put(EncodeKey(3), 3, "three");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(4), 4, "four").ok());
  db.reset();
  wal_path_ = FindFileWithSuffix(env_.get(), "wal_flip_batch_db", ".wal");
  ASSERT_FALSE(wal_path_.empty());
  ASSERT_TRUE(ReadFileToString(env_.get(), wal_path_, &wal_bytes_).ok());
  const std::vector<test::LoggedOp> ops =
      test::ReadWalOps(env_.get(), wal_path_);
  ASSERT_EQ(ops.size(), 4u);
  ASSERT_EQ(ops[2].group, 0u);
  ASSERT_EQ(ops[3].group, 1u);
  // Flip a byte of the last Put's value inside the batch's frame (its
  // bytes sit well before the frame of key 4's Put).
  const size_t at = wal_bytes_.find("three");
  ASSERT_NE(at, std::string::npos);
  std::string damaged = wal_bytes_;
  damaged[at] = static_cast<char>(damaged[at] ^ 0xff);
  RewriteFile(env_.get(), wal_path_, damaged);

  Status s = DB::Open(options_, "wal_flip_batch_db", &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_TRUE(DB::Repair(options_, "wal_flip_batch_db").ok());
  ASSERT_TRUE(DB::Open(options_, "wal_flip_batch_db", &db).ok());
  std::string got;
  for (uint64_t k = 1; k <= 3; k++) {
    EXPECT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &got).IsNotFound())
        << k;
  }
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(4), &got).ok());
  EXPECT_EQ(got, "four");
}

TEST_F(WalRecoveryTest, TornTailInOlderWalFailsOpenUntilRepair) {
  // Background mode with every table create failing: the first memtable's
  // flush never installs, so its WAL and the active one both survive close.
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 1024);
  LogicalClock clock(1);
  Options options = FaultyBackgroundOptions(&env, &clock);
  const std::string dbname = "wal_torn_older_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  UseFastRetries(db.get(), 1 << 20);
  FaultPolicy policy;
  policy.fail_appends = false;
  policy.fail_creates = true;
  policy.path_substring = ".sst";
  env.InjectFaults(policy);
  const std::string value(128, 'w');
  const uint64_t written = 36;  // one memtable swap, as in EnospcTest
  for (uint64_t k = 0; k < written; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k + 1, value).ok());
  }
  db.reset();
  env.ClearFaults();

  const std::vector<uint64_t> wals = test::WalNumbers(&env, dbname);
  ASSERT_EQ(wals.size(), 2u);
  const std::string older = WalFileName(dbname, wals[0]);
  // Each Put is its own commit group, so ops and frames correspond.
  const std::vector<test::LoggedOp> older_records =
      test::ReadWalOps(&env, older);
  const std::vector<test::LoggedOp> newer_records =
      test::ReadWalOps(&env, WalFileName(dbname, wals[1]));
  ASSERT_GE(older_records.size(), 2u);
  ASSERT_FALSE(newer_records.empty());
  ASSERT_EQ(older_records.size() + newer_records.size(), written);

  // Tear the older log's final frame. Behind it lies a whole newer log, so
  // this is not the end a crash leaves: Open refuses it.
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(&env, older, &bytes).ok());
  RewriteFile(&env, older, bytes.substr(0, bytes.size() - 3));
  Status s = DB::Open(options, dbname, &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("DB::Repair"), std::string::npos)
      << s.ToString();

  // Repair cuts the torn frame; the older log's intact prefix and the whole
  // newer log replay.
  ASSERT_TRUE(DB::Repair(options, dbname).ok());
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string got;
  for (size_t i = 0; i + 1 < older_records.size(); i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), older_records[i].key, &got).ok()) << i;
    EXPECT_EQ(got, value);
  }
  EXPECT_TRUE(
      db->Get(ReadOptions(), older_records.back().key, &got).IsNotFound());
  for (const test::LoggedOp& record : newer_records) {
    ASSERT_TRUE(db->Get(ReadOptions(), record.key, &got).ok());
    EXPECT_EQ(got, value);
  }
}

// ---- damaged MANIFEST -------------------------------------------------------

/// The manifest CURRENT names in `dbname`.
uint64_t CurrentManifestNumber(Env* env, const std::string& dbname) {
  std::string current;
  EXPECT_TRUE(ReadFileToString(env, dbname + "/CURRENT", &current).ok());
  FileType type;
  uint64_t number = 0;
  EXPECT_TRUE(
      ParseFileName(current.substr(0, current.find('\n')), &type, &number));
  return number;
}

/// Flips one byte inside the first record of manifest `number`.
void DamageManifest(Env* env, const std::string& dbname, uint64_t number) {
  const std::string path = ManifestFileName(dbname, number);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(env, path, &bytes).ok());
  ASSERT_GT(bytes.size(), 16u);
  bytes[12] = static_cast<char>(bytes[12] ^ 0xff);
  RewriteFile(env, path, bytes);
}

// An older intact manifest beside a damaged current one is not a recovery
// point: it predates a flushed delete, so Open refuses instead of undoing
// the delete, and Repair rebuilds the tree from every table.
TEST(ManifestRecoveryTest, DamagedManifestFailsOpenUntilRepair) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  const std::string dbname = "manifest_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(7), 7, "seven").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();
  // The snapshot a crash could leave behind: key 7 live.
  std::string stale;
  ASSERT_TRUE(ReadFileToString(
                  env.get(),
                  ManifestFileName(dbname,
                                   CurrentManifestNumber(env.get(), dbname)),
                  &stale)
                  .ok());

  // After it: an acknowledged, flushed delete of key 7, and key 8, which
  // only the current manifest's tables hold.
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->Delete(WriteOptions(), EncodeKey(7)).ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(8), 8, "eight").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();
  const uint64_t current = CurrentManifestNumber(env.get(), dbname);
  RewriteFile(env.get(), ManifestFileName(dbname, current - 1), stale);
  DamageManifest(env.get(), dbname, current);

  Status s = DB::Open(options, dbname, &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("DB::Repair"), std::string::npos)
      << s.ToString();

  ASSERT_TRUE(DB::Repair(options, dbname).ok());
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string got;
  s = db->Get(ReadOptions(), EncodeKey(7), &got);
  EXPECT_TRUE(s.IsNotFound()) << "the flushed delete was undone: " << got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(8), &got).ok());
  EXPECT_EQ(got, "eight");
  EXPECT_TRUE(FindFileWithSuffix(env.get(), dbname, ".bad").empty());
  ASSERT_TRUE(
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants().ok());
}

// A name that only starts like a manifest's is never read, nor removed, by
// Open or Repair.
TEST(ManifestRecoveryTest, StrayManifestLookalikeIsNotAManifest) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  const std::string dbname = "stray_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // An operator's backup copy whose name only starts like a manifest's,
  // numbered above every real one.
  std::string backup;
  ASSERT_TRUE(ReadFileToString(
                  env.get(),
                  ManifestFileName(dbname,
                                   CurrentManifestNumber(env.get(), dbname)),
                  &backup)
                  .ok());
  const std::string stray = dbname + "/MANIFEST-000099.bak";
  RewriteFile(env.get(), stray, backup);

  // The orphan sweep leaves it alone.
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  db.reset();
  ASSERT_TRUE(env->FileExists(stray));

  // With the current manifest damaged, Open still refuses rather than
  // reading the look-alike, and Repair rebuilds without it.
  DamageManifest(env.get(), dbname, CurrentManifestNumber(env.get(), dbname));
  Status s = DB::Open(options, dbname, &db);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_TRUE(DB::Repair(options, dbname).ok());
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_EQ(got, "one");
  EXPECT_TRUE(env->FileExists(stray));
  // Had any step taken it for manifest 99, file numbers would now run past
  // it.
  EXPECT_LT(CurrentManifestNumber(env.get(), dbname), 99u);
}

TEST(ManifestRecoveryTest, TransientReadErrorSurfaces) {
  auto base = NewMemEnv();
  IoCountingEnv env(base.get());
  Options options;
  options.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "transient_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1), 1, "one").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();
  ASSERT_TRUE(DB::Open(options, "transient_db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(2), 2, "two").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // One transient EIO on the first read of the current manifest is not
  // damage: Open surfaces it as it is.
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
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(1), &got).ok());
  EXPECT_EQ(got, "one");
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(2), &got).ok());
  EXPECT_EQ(got, "two");
  EXPECT_TRUE(FindFileWithSuffix(&env, "transient_db", ".bad").empty());
}

// ---- manifest roll ----------------------------------------------------------

// The roll limits of version_set.cc: a roll fires once the edits appended
// since the snapshot record exceed max(floor, ratio x snapshot).
constexpr uint64_t kRollFloorBytes = 256 << 10;
constexpr uint64_t kRollRatio = 2;

/// Names of the MANIFEST files in `dbname`.
std::vector<std::string> ManifestFiles(Env* env, const std::string& dbname) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dbname, &children).ok());
  std::vector<std::string> manifests;
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (ParseFileName(child, &type, &number) && type == FileType::kManifest) {
      manifests.push_back(child);
    }
  }
  return manifests;
}

/// Framed size of each record of manifest `path`: the snapshot, then the
/// edits appended after it.
std::vector<uint64_t> ManifestRecordSizes(Env* env, const std::string& path) {
  std::string contents;
  EXPECT_TRUE(ReadFileToString(env, path, &contents).ok()) << path;
  RecordLogScanner scanner{Slice(contents)};
  std::vector<uint64_t> sizes;
  Slice record;
  uint64_t begin = 0;
  while (scanner.Next(&record) == RecordLogScanner::Result::kRecord) {
    sizes.push_back(scanner.offset() - begin);
    begin = scanner.offset();
  }
  return sizes;
}

/// Fails one step of a MANIFEST roll. Each step is one only a roll takes
/// (a new manifest, CURRENT's rewrite, the old manifest's removal), so the
/// edits appended to the manifest in use keep committing.
class RollFaultEnv final : public test::ForwardingEnv {
 public:
  enum class Step { kNone, kCreate, kAppend, kSync, kCurrentTmp, kRename,
                    kRemoveOld };

  explicit RollFaultEnv(Env* target) : ForwardingEnv(target) {}

  void Arm(Step step) { step_.store(step); }
  uint64_t fired() const { return fired_.load(); }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    const bool manifest = IsManifest(fname);
    if ((manifest && Fires(Step::kCreate)) ||
        (EndsWith(fname, "/CURRENT.tmp") && Fires(Step::kCurrentTmp))) {
      return Status::IOError("injected: create " + fname);
    }
    std::unique_ptr<WritableFile> file;
    LETHE_RETURN_IF_ERROR(target_->NewWritableFile(fname, &file));
    // Only a manifest created while a step is armed can fail an append or
    // a sync: the manifest in use was created before, and its edits pass.
    if (manifest && step_.load() != Step::kNone) {
      *result = std::make_unique<File>(this, std::move(file));
    } else {
      *result = std::move(file);
    }
    return Status::OK();
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (EndsWith(target, "/CURRENT") && Fires(Step::kRename)) {
      return Status::IOError("injected: rename " + src);
    }
    return target_->RenameFile(src, target);
  }
  Status RemoveFile(const std::string& fname) override {
    if (IsManifest(fname) && Fires(Step::kRemoveOld)) {
      return Status::IOError("injected: remove " + fname);
    }
    return target_->RemoveFile(fname);
  }

 private:
  /// A new manifest: fails an armed append or sync.
  class File final : public WritableFile {
   public:
    File(RollFaultEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      return env_->Fires(Step::kAppend) ? Status::IOError("injected: append")
                                        : base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      return env_->Fires(Step::kSync) ? Status::IOError("injected: sync")
                                      : base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    RollFaultEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  static bool EndsWith(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }
  static bool IsManifest(const std::string& fname) {
    FileType type;
    uint64_t number = 0;
    return ParseFileName(fname.substr(fname.rfind('/') + 1), &type,
                         &number) &&
           type == FileType::kManifest;
  }
  bool Fires(Step step) {
    if (step_.load() != step) {
      return false;
    }
    fired_.fetch_add(1);
    return true;
  }

  std::atomic<Step> step_{Step::kNone};
  std::atomic<uint64_t> fired_{0};
};

/// A KiWi retention window: puts carry ascending delete keys (insertion
/// timestamps), and each step's secondary range delete drops the oldest
/// band, as many delete keys as the step put. Every SRD re-adds the whole
/// FileMeta (page count vectors included) of each file it touches, so the
/// MANIFEST grows by KBs per step. Every write goes through a KeyModel.
class ManifestRollTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 4000;
  static constexpr int kPutsPerStep = 20;

  void SetUp() override {
    base_env_ = NewMemEnv();
    clock_.SetMicros(1);
    options_.env = base_env_.get();
    options_.clock = &clock_;
    options_.write_buffer_bytes = 16 << 10;
    options_.target_file_bytes = 16 << 10;
    options_.size_ratio = 4;
    options_.table.page_size_bytes = 1024;
    options_.table.entries_per_page = 8;
    options_.table.pages_per_tile = 4;
    options_.table.bloom_bits_per_key = 10;
  }

  void TearDown() override { db_.reset(); }

  Status Reopen() {
    db_.reset();
    return DB::Open(options_, kDb, &db_);
  }
  DBImpl* impl() { return static_cast<DBImpl*>(db_.get()); }
  uint64_t rolls() { return db_->stats().manifest_rolls.load(); }

  /// Puts of random keys. Delete keys start at 1: 0 is a tombstone's, and
  /// no band reaches it.
  void PutSome(int n) {
    for (int i = 0; i < n; i++) {
      clock_.AdvanceMicros(1);
      const uint64_t dk = next_dk_++;
      ASSERT_TRUE(model_
                      .Write(db_.get(), ModelOp::Put(rnd_.Uniform(kKeys), dk,
                                                     "v" + std::to_string(dk)))
                      .ok());
    }
  }

  /// One step of the window: puts, then an SRD of the oldest band.
  void Step() {
    PutSome(kPutsPerStep);
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(model_
                    .Write(db_.get(), ModelOp::SecondaryRangeDelete(
                                          srd_lo_, srd_lo_ + kPutsPerStep))
                    .ok());
    srd_lo_ += kPutsPerStep;
  }

  /// Steps until `done()` holds, at most `max_steps` times.
  template <typename Done>
  bool StepUntil(Done done, int max_steps = 3000) {
    for (int i = 0; i < max_steps && !done(); i++) {
      Step();
      if (::testing::Test::HasFatalFailure()) {
        return false;
      }
    }
    return done();
  }

  static constexpr char kDb[] = "roll_db";
  std::unique_ptr<Env> base_env_;
  LogicalClock clock_;
  Options options_;
  std::unique_ptr<DB> db_;
  KeyModel model_{0, kKeys, "ManifestRollTest"};
  Random rnd_{301};
  uint64_t next_dk_ = 1;
  uint64_t srd_lo_ = 1;  // the oldest delete key the window still holds
};

// Over 1 MB of SRD edits, the MANIFEST never outgrows one snapshot plus the
// roll limit plus the edit that crossed it, and exactly one MANIFEST file
// exists after every edit. A reopen restores the modelled state.
TEST_F(ManifestRollTest, SrdEditsKeepTheManifestBounded) {
  ASSERT_TRUE(Reopen().ok());
  PutSome(10000);
  std::string name;
  uint64_t size = 0;
  uint64_t snapshot = 0;
  uint64_t edit_bytes = 0;
  auto check = [&] {
    const std::vector<std::string> manifests = ManifestFiles(base_env_.get(), kDb);
    if (manifests.size() != 1) {
      ADD_FAILURE() << manifests.size() << " manifests";
      return true;
    }
    const std::string path = std::string(kDb) + "/" + manifests[0];
    uint64_t now_size = 0;
    EXPECT_TRUE(base_env_->GetFileSize(path, &now_size).ok());
    if (manifests[0] != name) {
      name = manifests[0];
      snapshot = ManifestRecordSizes(base_env_.get(), path).front();
      edit_bytes += now_size - snapshot;
    } else {
      edit_bytes += now_size - size;
    }
    size = now_size;
    const uint64_t limit = std::max(kRollFloorBytes, kRollRatio * snapshot);
    if (size > snapshot + limit) {
      const uint64_t last_edit = ManifestRecordSizes(base_env_.get(), path).back();
      EXPECT_LE(size, snapshot + limit + last_edit);
    }
    return edit_bytes >= (1 << 20);
  };
  const uint64_t rolls_before = rolls();
  ASSERT_TRUE(StepUntil(check));
  EXPECT_GE(rolls() - rolls_before, 3u);

  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(ManifestFiles(base_env_.get(), kDb).size(), 1u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

// A failure at any step of a roll leaves the old manifest in use: the edit
// that triggered the roll is already in it, writes keep committing, the
// partial file goes, and the next edit retries the roll. A reopen restores
// the modelled state and leaves one manifest.
TEST_F(ManifestRollTest, FailedRollStepKeepsTheOldManifest) {
  RollFaultEnv env(base_env_.get());
  options_.env = &env;
  ASSERT_TRUE(Reopen().ok());
  PutSome(10000);
  using FaultStep = RollFaultEnv::Step;
  const std::pair<FaultStep, const char*> steps[] = {
      {FaultStep::kCreate, "new file"},
      {FaultStep::kAppend, "append"},
      {FaultStep::kSync, "sync"},
      {FaultStep::kCurrentTmp, "CURRENT.tmp"},
      {FaultStep::kRename, "rename"},
      {FaultStep::kRemoveOld, "old-manifest delete"}};
  for (const auto& [step, label] : steps) {
    SCOPED_TRACE(label);
    const uint64_t rolls_before = rolls();
    const uint64_t fired_before = env.fired();
    env.Arm(step);
    ASSERT_TRUE(StepUntil([&] { return env.fired() > fired_before; }));
    // Every later edit retries the roll and fails again; writes commit.
    for (int i = 0; i < 3; i++) {
      Step();
    }
    if (step == FaultStep::kRemoveOld) {
      // The roll itself committed; the superseded file stays until Open.
      EXPECT_GT(rolls(), rolls_before);
      EXPECT_GE(ManifestFiles(&env, kDb).size(), 2u);
    } else {
      EXPECT_EQ(rolls(), rolls_before);
      EXPECT_EQ(ManifestFiles(&env, kDb).size(), 1u);
    }
    env.Arm(FaultStep::kNone);
    ASSERT_TRUE(StepUntil([&] { return rolls() > rolls_before; }));
    EXPECT_EQ(impl()->TEST_error_handler()->health(), DBHealth::kHealthy);
    ASSERT_TRUE(Reopen().ok());
    EXPECT_EQ(ManifestFiles(&env, kDb).size(), 1u);
    EXPECT_TRUE(model_.CheckAll(db_.get()));
  }
}

// A roll prunes the seq→time checkpoints, and neither the prune nor a
// reopen changes the time TimeOfSeq gives the sequence of any tombstone
// still in the tree. Checkpoints older than every live tombstone go.
TEST_F(ManifestRollTest, PruneKeepsEveryLiveTombstoneTime) {
  ASSERT_TRUE(Reopen().ok());
  // Older flushes, whose checkpoints no tombstone needs.
  PutSome(200);
  const SequenceNumber early = impl()->TEST_LastSequence();
  for (int round = 0; round < 8; round++) {
    PutSome(1000);
    ASSERT_TRUE(db_->Flush().ok());
    clock_.AdvanceMicros(1000);
  }
  ASSERT_NE(impl()->TEST_TimeOfSeq(early), 0u);
  // A snapshot keeps the tombstones in the tree while the window moves.
  const Snapshot* snap = db_->GetSnapshot();
  std::vector<std::pair<SequenceNumber, uint64_t>> tombstones;
  for (int round = 0; round < 4; round++) {
    for (uint64_t k = 0; k < 20; k++) {
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(
          model_.Write(db_.get(), ModelOp::Delete(round * 1000 + k)).ok());
      tombstones.emplace_back(impl()->TEST_LastSequence(), 0);
    }
    ASSERT_TRUE(db_->Flush().ok());
    clock_.AdvanceMicros(1000);
  }
  for (auto& [seq, time] : tombstones) {
    time = impl()->TEST_TimeOfSeq(seq);
  }

  const uint64_t rolls_before = rolls();
  ASSERT_TRUE(StepUntil([&] { return rolls() > rolls_before; }));
  // The oldest tombstone still in the tree bounds what the prune keeps.
  SequenceNumber oldest_live = kMaxSequenceNumber;
  const int levels = static_cast<int>(db_->GetLevelSnapshots().size());
  for (int level = 0; level < levels; level++) {
    for (const FileMeta& f : impl()->TEST_LevelFiles(level)) {
      if (f.HasTombstones()) {
        oldest_live = std::min(oldest_live, f.oldest_tombstone_seq);
      }
    }
  }
  ASSERT_LE(oldest_live, tombstones.back().first);
  EXPECT_EQ(impl()->TEST_TimeOfSeq(early), 0u);  // its checkpoint went
  int checked = 0;
  for (const auto& [seq, time] : tombstones) {
    if (seq >= oldest_live) {
      EXPECT_EQ(impl()->TEST_TimeOfSeq(seq), time) << "seq " << seq;
      checked++;
    }
  }
  EXPECT_GT(checked, 0);

  db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(Reopen().ok());
  for (const auto& [seq, time] : tombstones) {
    if (seq >= oldest_live) {
      EXPECT_EQ(impl()->TEST_TimeOfSeq(seq), time) << "seq " << seq;
    }
  }
  EXPECT_TRUE(model_.CheckAll(db_.get()));
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
    DamageManifest(env_.get(), dbname,
                   CurrentManifestNumber(env_.get(), dbname));
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

// Tables a merge left behind can overlap with newest sequences that do not
// order them: D holds key 5's older version beside a newer key 9, and the
// range delete in A covers an older version of key 25 in B, whose key 50 is
// newer than it. Repair must place each key's newest version, and each
// range tombstone, above the older versions.
TEST_F(RepairTest, PlacesEachKeysNewestVersionFirst) {
  env_ = NewMemEnv();
  options_ = Options();
  options_.env = env_.get();
  const std::string dbname = "repair_order_db";
  ASSERT_TRUE(env_->CreateDirIfMissing(dbname).ok());
  auto write_table = [&](uint64_t number,
                         const std::vector<ParsedEntry>& entries,
                         const std::vector<RangeTombstone>& rts) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        env_->NewWritableFile(TableFileName(dbname, number), &file).ok());
    SSTableBuilder builder(options_.WithDefaults().table, file.get());
    for (const ParsedEntry& entry : entries) {
      builder.Add(entry);
    }
    for (const RangeTombstone& rt : rts) {
      builder.AddRangeTombstone(rt);
    }
    TableProperties props;
    ASSERT_TRUE(builder.Finish(&props).ok());
    ASSERT_TRUE(file->Close().ok());
  };
  const std::string k5 = EncodeKey(5), k9 = EncodeKey(9), k20 = EncodeKey(20),
                    k25 = EncodeKey(25), k30 = EncodeKey(30),
                    k50 = EncodeKey(50);
  write_table(5, {{k5, 5, 1, ValueType::kValue, "old"},
                  {k9, 9, 10, ValueType::kValue, "nine"}},
              {});                                                   // D
  write_table(6, {{k5, 5, 5, ValueType::kValue, "new"}}, {});        // S
  write_table(7, {}, {{k20, k30, 8, 0}});                            // A
  write_table(8, {{k25, 25, 3, ValueType::kValue, "deleted"},
                  {k50, 50, 20, ValueType::kValue, "fifty"}},
              {});                                                   // B

  ASSERT_TRUE(DB::Repair(options_, dbname).ok());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname, &db).ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), k5, &got).ok());
  EXPECT_EQ(got, "new");
  ASSERT_TRUE(db->Get(ReadOptions(), k9, &got).ok());
  EXPECT_EQ(got, "nine");
  Status s = db->Get(ReadOptions(), k25, &got);
  EXPECT_TRUE(s.IsNotFound()) << "the range delete was undone: " << got;
  ASSERT_TRUE(db->Get(ReadOptions(), k50, &got).ok());
  EXPECT_EQ(got, "fifty");
  ASSERT_TRUE(
      static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants().ok());
}

// A range delete lives in its table's range tombstones. Repair must widen
// the table's key span over them, or the older entries they cover come
// back, and resume the sequence past them, or a later write sequences
// under a delete that then hides it. With the manifest damaged, no
// recorded counter supplies that sequence.
TEST_F(RepairTest, RangeDeleteSurvivesRepair) {
  for (const bool damaged : {false, true}) {
    SCOPED_TRACE(damaged ? "manifest damaged" : "manifest intact");
    env_ = NewMemEnv();
    options_ = Options();
    options_.env = env_.get();
    options_.write_buffer_bytes = 16 << 10;
    options_.target_file_bytes = 16 << 10;
    const std::string dbname = "repair_rt_db";
    const std::string value(100, 'v');
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname, &db).ok());
    for (uint64_t k = 0; k < 3000; k++) {
      ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k, value).ok());
    }
    ASSERT_TRUE(db->WaitForCompact().ok());
    // A table whose range tombstone reaches past its entries…
    ASSERT_TRUE(
        db->RangeDelete(WriteOptions(), EncodeKey(30), EncodeKey(40)).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(35), 35, "after").ok());
    ASSERT_TRUE(db->Flush().ok());
    // …and a table of range tombstones alone.
    ASSERT_TRUE(
        db->RangeDelete(WriteOptions(), EncodeKey(10), EncodeKey(20)).ok());
    ASSERT_TRUE(db->Flush().ok());
    const SequenceNumber last =
        static_cast<DBImpl*>(db.get())->TEST_LastSequence();
    db.reset();
    if (damaged) {
      CorruptManifest(dbname);
    }

    ASSERT_TRUE(DB::Repair(options_, dbname).ok());
    ASSERT_TRUE(DB::Open(options_, dbname, &db).ok());
    EXPECT_GE(static_cast<DBImpl*>(db.get())->TEST_LastSequence(), last);
    std::string got;
    for (uint64_t k = 0; k < 50; k++) {
      Status s = db->Get(ReadOptions(), EncodeKey(k), &got);
      if (k == 35) {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(got, "after");
      } else if ((k >= 10 && k < 20) || (k >= 30 && k < 40)) {
        EXPECT_TRUE(s.IsNotFound()) << k << " came back: " << got;
      } else {
        ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
        EXPECT_EQ(got, value) << k;
      }
    }
    size_t scanned = 0;
    auto it = db->NewIterator(ReadOptions());
    for (it->Seek(EncodeKey(10));
         it->Valid() && it->key().compare(Slice(EncodeKey(20))) < 0;
         it->Next()) {
      scanned++;
    }
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(scanned, 0u);
    ASSERT_TRUE(
        static_cast<DBImpl*>(db.get())->TEST_VerifyTreeInvariants().ok());
  }
}

// ---- deferred secondary range deletes --------------------------------------
//
// In background mode DB::SecondaryRangeDelete records the delete in the
// version's pending set (one MANIFEST edit) and returns; one batched page
// pass applies it later. The pending set is durable through that MANIFEST
// edit: the WAL that logged the delete may retire before the batch commits.

class DeferredSrdFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_ = NewMemEnv();
    env_ = std::make_unique<IoCountingEnv>(base_env_.get(), 1024);
    options_ = FaultyBackgroundOptions(env_.get(), &clock_);
    options_.table.pages_per_tile = 4;
  }

  Status Open(const std::string& dbname) {
    db_.reset();
    return DB::Open(options_, dbname, &db_);
  }
  DBImpl* impl() { return static_cast<DBImpl*>(db_.get()); }
  uint64_t Batches() { return db_->stats().srd_batches.load(); }

  /// Keys [0, n) with delete key = key, flushed.
  void Load(uint64_t n) {
    for (uint64_t k = 0; k < n; k++) {
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(
          model_.Write(db_.get(), ModelOp::Put(k, k, std::string(100, 'v')))
              .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  /// Puts fresh keys from *next until the active memtable seals.
  void FillUntilSeal(const std::string& dbname, uint64_t* next) {
    const uint64_t active = test::WalNumbers(env_.get(), dbname).back();
    while (test::WalNumbers(env_.get(), dbname).back() == active) {
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(model_
                      .Write(db_.get(), ModelOp::Put(*next, *next,
                                                     std::string(100, 'n')))
                      .ok());
      (*next)++;
    }
  }

  /// The crash image of `from`: every file as the open DB left it (WAL and
  /// MANIFEST records reach the file as they are appended).
  void CopyDb(const std::string& from, const std::string& to) {
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren(from, &children).ok());
    ASSERT_TRUE(env_->CreateDirIfMissing(to).ok());
    for (const std::string& child : children) {
      std::string bytes;
      ASSERT_TRUE(ReadFileToString(env_.get(), from + "/" + child, &bytes).ok())
          << child;
      ASSERT_TRUE(WriteStringToFile(env_.get(), bytes, to + "/" + child).ok());
    }
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<IoCountingEnv> env_;
  LogicalClock clock_{1};
  Options options_;
  std::unique_ptr<DB> db_;
  KeyModel model_{0, 100000, "deferred srd fault"};
};

// A crash after the call returns and before its batch commits: the reopened
// DB hides the entries, and its next seal applies the delete.
TEST_F(DeferredSrdFaultTest, CrashBeforeTheBatchKeepsEntriesHidden) {
  ASSERT_TRUE(Open("srd_live_db").ok());
  Load(400);
  ASSERT_TRUE(
      model_.Write(db_.get(), ModelOp::SecondaryRangeDelete(50, 250)).ok());
  ASSERT_EQ(Batches(), 0u);
  CopyDb("srd_live_db", "srd_crash_db");
  db_.reset();

  ASSERT_TRUE(Open("srd_crash_db").ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  EXPECT_EQ(db_->ApproximateEntryCount(), 400u);  // hidden, not yet purged
  uint64_t next = 1000;
  FillUntilSeal("srd_crash_db", &next);
  ASSERT_TRUE(WaitFor([&] { return Batches() == 1; }, 10000));
  ASSERT_TRUE(WaitFor(
      [&] { return db_->ApproximateEntryCount() <= 200 + next - 1000; },
      10000));
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  ASSERT_TRUE(Open("srd_crash_db").ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  EXPECT_EQ(Batches(), 0u);  // nothing was left pending
}

// A table-write fault fails the batch: the entries stay hidden while the DB
// is degraded, and resume runs the batch again.
TEST_F(DeferredSrdFaultTest, FailedBatchStaysHiddenAndResumeRetriesIt) {
  ASSERT_TRUE(Open("srd_fault_db").ok());
  UseFastRetries(db_.get(), 1 << 20);  // stay degraded while armed
  Load(400);
  // Band edges inside pages: the batch must rewrite pages in place.
  ASSERT_TRUE(
      model_.Write(db_.get(), ModelOp::SecondaryRangeDelete(53, 247)).ok());
  FaultPolicy policy;
  policy.fail_appends = true;
  policy.path_substring = ".sst";
  env_->InjectFaults(policy);
  EXPECT_FALSE(db_->Flush().ok());  // its waiter runs the batch, which fails
  EXPECT_EQ(Batches(), 0u);
  EXPECT_GT(db_->stats().bg_errors_by_class[0].load() +
                db_->stats().bg_errors_by_class[1].load() +
                db_->stats().bg_errors_by_class[2].load() +
                db_->stats().bg_errors_by_class[3].load(),
            0u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));

  env_->ClearFaults();
  ASSERT_TRUE(WaitHealthy(impl()));
  ASSERT_TRUE(WaitFor([&] { return Batches() == 1; }, 10000));
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_GT(db_->stats().partial_page_drops.load(), 0u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  ASSERT_TRUE(Open("srd_fault_db").ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

// A Put issued after the delete, with a delete key inside its band,
// survives the batch: the delete removes only entries sequenced before it.
// The seal that starts the batch is queued before the batch can run, so
// the Put's memtable is on disk when the page pass starts.
TEST_F(DeferredSrdFaultTest, PutAfterTheDeleteSurvivesTheBatch) {
  ASSERT_TRUE(Open("srd_put_db").ok());
  Load(400);
  const SequenceNumber before = impl()->TEST_LastSequence();
  impl()->TEST_scheduler()->TEST_Pause();
  std::thread srd([&] {
    EXPECT_TRUE(db_->SecondaryRangeDelete(WriteOptions(), 50, 250).ok());
  });
  // The delete's sequence is published before its disk part runs.
  ASSERT_TRUE(WaitFor(
      [&] { return impl()->TEST_LastSequence() > before; }, 10000));
  model_.Apply(ModelOp::SecondaryRangeDelete(50, 250));
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Put(60, 100, "after")).ok());
  ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Put(5000, 120, "new")).ok());
  std::thread flush([&] { EXPECT_TRUE(db_->Flush().ok()); });
  ASSERT_TRUE(WaitFor(
      [&] { return test::WalNumbers(env_.get(), "srd_put_db").size() >= 2; },
      10000));  // the Puts' memtable sealed
  impl()->TEST_scheduler()->TEST_Resume();
  srd.join();
  flush.join();
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  ASSERT_TRUE(Open("srd_put_db").ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
}

// Repair carries the pages secondary range deletes dropped whole: their
// entries stay deleted, though only the MANIFEST recorded the drops.
TEST_F(RepairTest, KeepsSecondaryDeletePageDrops) {
  env_ = NewMemEnv();
  options_ = Options();
  options_.env = env_.get();
  options_.table.page_size_bytes = 1024;
  options_.table.entries_per_page = 8;
  options_.table.pages_per_tile = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "repair_srd_db", &db).ok());
  for (uint64_t k = 0; k < 400; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k, "flushed").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->SecondaryRangeDelete(WriteOptions(), 0, 200).ok());
  ASSERT_GT(db->stats().full_page_drops.load(), 0u);
  ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(1000), 1, "walonly").ok());
  db.reset();

  ASSERT_TRUE(DB::Repair(options_, "repair_srd_db").ok());
  ASSERT_TRUE(DB::Open(options_, "repair_srd_db", &db).ok());
  for (uint64_t k = 0; k < 400; k++) {
    std::string got;
    Status s = db->Get(ReadOptions(), EncodeKey(k), &got);
    if (k < 200) {
      EXPECT_TRUE(s.IsNotFound()) << k << ": " << s.ToString();
    } else {
      EXPECT_TRUE(s.ok()) << k << ": " << s.ToString();
    }
  }
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(1000), &got).ok());
  EXPECT_EQ(got, "walonly");
}

// Repair carries a pending secondary range delete too, and the next write
// sequences above it.
TEST_F(DeferredSrdFaultTest, RepairKeepsPendingDeletes) {
  ASSERT_TRUE(Open("srd_repair_live_db").ok());
  Load(400);
  ASSERT_TRUE(
      model_.Write(db_.get(), ModelOp::SecondaryRangeDelete(50, 250)).ok());
  CopyDb("srd_repair_live_db", "srd_repair_db");
  db_.reset();
  ASSERT_TRUE(DB::Repair(options_, "srd_repair_db").ok());
  ASSERT_TRUE(Open("srd_repair_db").ok());
  EXPECT_TRUE(model_.CheckAll(db_.get()));
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Put(70, 70, "later")).ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());
  EXPECT_EQ(Batches(), 1u);
  EXPECT_TRUE(model_.CheckAll(db_.get()));
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

  const std::string dbname = "fault_stress_db";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  UseFastRetries(db.get(), 4);
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
  // rightly refuses — that path is covered by WalRecoveryTest.
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
