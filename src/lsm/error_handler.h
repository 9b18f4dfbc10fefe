#ifndef LETHE_LSM_ERROR_HANDLER_H_
#define LETHE_LSM_ERROR_HANDLER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <thread>

#include "src/core/statistics.h"
#include "src/util/clock.h"
#include "src/util/status.h"

namespace lethe {

/// Severity classification for a failed background operation. The class
/// decides which health state the DB falls to and whether automatic
/// recovery is attempted.
enum class ErrorClass : int {
  kTransient = 0,   // EIO-style failures: retry with backoff
  kNoSpace = 1,     // ENOSPC: retry with backoff (space may free up)
  kCorruption = 2,  // checksum/decode damage: never retried, read-only
  kFatal = 3,       // everything else: read-only, sticky
};

/// DB health state machine:
///
///            retryable error                 retries exhausted
///   kHealthy ───────────────▶ kDegraded ───────────────────────▶ kReadOnly
///      ▲                         │   ▲                               │
///      │        probe succeeds   │   │ probe fails (backoff+jitter)  │
///      └─────────────────────────┴───┘          probe succeeds       │
///      └──────────────────────────────────────────────────────────────
///
///   corruption error  ─▶ kReadOnly (sticky: no probing)
///   unclassifiable    ─▶ kFatal    (sticky)
///
/// kDegraded: writes are still accepted (the WAL and memtable are not the
/// failing component) until ordinary backpressure — the immutable-memtable
/// cap — stalls them; background scheduling is suspended. The state is
/// bounded: it resolves to kHealthy (probe + job success) or kReadOnly
/// (retry budget drained) in bounded attempts. kReadOnly: writes are
/// rejected with Status::IOError; reads, iterators, and snapshots keep
/// serving from the installed version. Retryable read-only keeps probing
/// at the max backoff so a cleared fault still heals the DB. kFatal: as
/// kReadOnly but never probed.
enum class DBHealth : int {
  kHealthy = 0,
  kDegraded = 1,
  kReadOnly = 2,
  kFatal = 3,
};

/// Which background activity reported the error — for messages and tests.
enum class BackgroundJobKind : int {
  kFlush = 0,
  kCompaction = 1,
  kWalWrite = 2,
  kManifestWrite = 3,
  kSecondaryDelete = 4,
};

const char* ErrorClassName(ErrorClass c);
const char* DBHealthName(DBHealth h);
const char* BackgroundJobKindName(BackgroundJobKind k);

/// Central sink for background-job failures, owned by DBImpl. Every failed
/// flush, merge, subcompaction partition, SRD, WAL group append, or manifest
/// commit reports here; the handler classifies the error, drives the DBHealth
/// state machine, and (for retryable classes) runs a recovery thread that
/// probes the storage with exponential backoff + jitter and invokes the
/// owner's resume callback once a probe write succeeds.
///
/// Locking: the handler has its own mutex and NEVER invokes a callback while
/// holding it. DBImpl's callbacks take db mu_ themselves, so the only legal
/// lock order is db mu_ → (nothing): ReportError is called with db mu_ held
/// but does all callback work asynchronously on the recovery thread.
class ErrorHandler {
 public:
  /// The retry schedule. DBImpl runs the defaults; tests shorten them
  /// through TEST_SetRetryPolicy.
  struct RetryPolicy {
    int max_retries = 8;
    uint64_t base_backoff_micros = 1000;
    uint64_t max_backoff_micros = 1000000;
    bool auto_recovery = true;
    uint64_t seed = 0;  // jitter RNG
  };

  /// ProbeFn: issued off-lock by the recovery thread; returns OK when the
  /// storage accepts a small write+sync again. ResumeFn: invoked (off the
  /// handler lock) after a successful probe; the owner clears its bg_error,
  /// re-arms scheduling, re-stakes reservations, and wakes stalled writers.
  /// Health turns kHealthy only after it returns, and only if no error was
  /// reported meanwhile.
  /// NotifyFn: invoked on every health-state change (including entry into
  /// degraded/read-only) so stalled writers re-evaluate their wait.
  using ProbeFn = std::function<Status()>;
  using ResumeFn = std::function<void()>;
  using NotifyFn = std::function<void()>;

  ErrorHandler(const RetryPolicy& policy, Clock* clock, Statistics* stats,
               ProbeFn probe, ResumeFn resume, NotifyFn notify);
  ~ErrorHandler();

  ErrorHandler(const ErrorHandler&) = delete;
  ErrorHandler& operator=(const ErrorHandler&) = delete;

  /// Maps a Status to its severity class. OK is not a valid input.
  static ErrorClass Classify(const Status& s);

  /// Reports one failed background operation. Drives the state machine and,
  /// for retryable classes with auto_recovery, (lazily) starts the recovery
  /// thread. Each retryable report consumes one attempt of the retry budget
  /// — a probe write alone cannot prove the failing component healed (it
  /// touches a scratch file, not the job's own path), so a job that keeps
  /// failing across probe-driven resumes still escalates to kReadOnly once
  /// the budget drains. Safe to call with the owner's mutex held: no
  /// callbacks run synchronously. Returns the health state entered.
  DBHealth ReportError(BackgroundJobKind kind, const Status& s);

  /// Reports a background job completing successfully: refills the retry
  /// budget. Only real job success resets it — probe success does not.
  /// Safe to call with the owner's mutex held.
  void ReportSuccess();

  /// Current health state.
  DBHealth health() const {
    std::lock_guard<std::mutex> lock(mu_);
    return health_;
  }

  /// The first error that moved the DB out of kHealthy since the last
  /// recovery (OK when healthy).
  Status cause() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cause_;
  }

  /// Joins the recovery thread. Must be called before the owner's resources
  /// (env, version set) are torn down; further ReportError calls after
  /// Shutdown record the error but never probe.
  void Shutdown();

  /// Test hook: replaces the retry schedule. Safe against a running
  /// recovery thread (every read of the policy holds the handler lock); the
  /// jitter RNG is reseeded from `policy.seed`.
  void TEST_SetRetryPolicy(const RetryPolicy& policy);

  /// Test hook: blocks until the recovery thread has exited its loop (i.e.
  /// either recovered to kHealthy or gone sticky). Returns current health.
  DBHealth TEST_WaitForQuiescent();

 private:
  void RecoveryLoop();
  /// Accumulates time_in_degraded_micros up to `now` (mu_ held).
  void AccumulateDegradedLocked(uint64_t now_micros);

  Clock* const clock_;
  Statistics* const stats_;
  const ProbeFn probe_;
  const ResumeFn resume_;
  const NotifyFn notify_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  RetryPolicy policy_;  // guarded by mu_
  DBHealth health_ = DBHealth::kHealthy;
  Status cause_;
  uint64_t degraded_since_micros_ = 0;  // valid when health_ != kHealthy
  bool sticky_ = false;  // corruption/fatal reported: never probe again
  bool recovery_running_ = false;       // recovery thread active
  bool shutdown_ = false;
  uint64_t epoch_ = 0;  // bumped on every new error report; wakes the loop
  // Retry attempts consumed since the last successful background job (each
  // retryable report and each failed probe is one); drives the backoff
  // schedule and the escalation to kReadOnly. Persists across recovery
  // thread incarnations so probe-driven resume churn cannot reset it.
  int attempt_ = 0;
  std::mt19937_64 jitter_rng_;  // guarded by mu_
  std::thread recovery_thread_;  // guarded by mu_ (join in Shutdown/dtor)
};

}  // namespace lethe

#endif  // LETHE_LSM_ERROR_HANDLER_H_
