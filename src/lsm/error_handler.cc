#include "src/lsm/error_handler.h"

#include <algorithm>
#include <chrono>

namespace lethe {

const char* ErrorClassName(ErrorClass c) {
  switch (c) {
    case ErrorClass::kTransient:
      return "transient";
    case ErrorClass::kNoSpace:
      return "no-space";
    case ErrorClass::kCorruption:
      return "corruption";
    case ErrorClass::kFatal:
      return "fatal";
  }
  return "?";
}

const char* DBHealthName(DBHealth h) {
  switch (h) {
    case DBHealth::kHealthy:
      return "healthy";
    case DBHealth::kDegraded:
      return "degraded";
    case DBHealth::kReadOnly:
      return "read-only";
    case DBHealth::kFatal:
      return "fatal";
  }
  return "?";
}

const char* BackgroundJobKindName(BackgroundJobKind k) {
  switch (k) {
    case BackgroundJobKind::kFlush:
      return "flush";
    case BackgroundJobKind::kCompaction:
      return "compaction";
    case BackgroundJobKind::kWalWrite:
      return "wal-write";
    case BackgroundJobKind::kManifestWrite:
      return "manifest-write";
    case BackgroundJobKind::kSecondaryDelete:
      return "secondary-delete";
  }
  return "?";
}

ErrorClass ErrorHandler::Classify(const Status& s) {
  if (s.IsNoSpace()) {
    return ErrorClass::kNoSpace;
  }
  if (s.IsIOError() || s.IsBusy()) {
    return ErrorClass::kTransient;
  }
  if (s.IsCorruption()) {
    return ErrorClass::kCorruption;
  }
  return ErrorClass::kFatal;
}

ErrorHandler::ErrorHandler(const RetryPolicy& policy, Clock* clock,
                           Statistics* stats, ProbeFn probe, ResumeFn resume,
                           NotifyFn notify)
    : clock_(clock),
      stats_(stats),
      probe_(std::move(probe)),
      resume_(std::move(resume)),
      notify_(std::move(notify)),
      policy_(policy),
      jitter_rng_(policy.seed) {}

ErrorHandler::~ErrorHandler() { Shutdown(); }

DBHealth ErrorHandler::ReportError(BackgroundJobKind kind, const Status& s) {
  const ErrorClass c = Classify(s);
  if (stats_ != nullptr) {
    stats_->bg_errors_by_class[static_cast<int>(c)].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (health_ == DBHealth::kHealthy) {
    degraded_since_micros_ = clock_->NowMicros();
  }
  if (cause_.ok()) {
    std::string msg = std::string(BackgroundJobKindName(kind)) + ": " +
                      s.ToString();
    switch (c) {
      case ErrorClass::kNoSpace:
        cause_ = Status::NoSpace(msg);
        break;
      case ErrorClass::kCorruption:
        cause_ = Status::Corruption(msg);
        break;
      default:
        cause_ = Status::IOError(msg);
        break;
    }
  }

  // Severity only escalates; a transient error while read-only does not
  // re-enter degraded (writers would start waiting on a state the retry
  // budget no longer bounds).
  DBHealth target;
  bool retryable = false;
  switch (c) {
    case ErrorClass::kTransient:
    case ErrorClass::kNoSpace:
      retryable = policy_.auto_recovery;
      // Every retryable failure consumes an attempt; once the budget is
      // gone the DB is read-only (still probed at the max backoff, so a
      // fault that truly clears heals it — and a later job success refills
      // the budget via ReportSuccess).
      attempt_++;
      target = retryable && attempt_ <= policy_.max_retries
                   ? DBHealth::kDegraded
                   : DBHealth::kReadOnly;
      break;
    case ErrorClass::kCorruption:
      target = DBHealth::kReadOnly;
      sticky_ = true;
      break;
    case ErrorClass::kFatal:
    default:
      target = DBHealth::kFatal;
      sticky_ = true;
      break;
  }
  if (static_cast<int>(target) > static_cast<int>(health_)) {
    health_ = target;
  }
  epoch_++;
  if (retryable && !sticky_ && !shutdown_ && !recovery_running_) {
    if (recovery_thread_.joinable()) {
      // A previous incarnation has exited (recovery_running_ == false) but
      // was never joined; it is past any locking, so this join is instant.
      recovery_thread_.join();
    }
    recovery_running_ = true;
    recovery_thread_ = std::thread([this] { RecoveryLoop(); });
  }
  cv_.notify_all();
  return health_;
}

void ErrorHandler::AccumulateDegradedLocked(uint64_t now_micros) {
  if (health_ != DBHealth::kHealthy && stats_ != nullptr &&
      now_micros > degraded_since_micros_) {
    stats_->time_in_degraded_micros.fetch_add(
        now_micros - degraded_since_micros_, std::memory_order_relaxed);
  }
  degraded_since_micros_ = now_micros;
}

void ErrorHandler::RecoveryLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (shutdown_ || sticky_ || health_ == DBHealth::kHealthy ||
        health_ == DBHealth::kFatal) {
      break;
    }

    // Exponential backoff with jitter in [0.5, 1.0]. Once read-only (retries
    // exhausted) keep probing at the max backoff: a cleared fault should
    // still heal the DB without a reopen.
    uint64_t backoff = policy_.base_backoff_micros;
    for (int i = 0; i < attempt_ && backoff < policy_.max_backoff_micros;
         i++) {
      backoff = std::min(backoff * 2, policy_.max_backoff_micros);
    }
    if (health_ == DBHealth::kReadOnly) {
      backoff = policy_.max_backoff_micros;
    }
    std::uniform_real_distribution<double> jitter(0.5, 1.0);
    backoff = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(backoff) *
                                 jitter(jitter_rng_)));
    cv_.wait_for(lock, std::chrono::microseconds(backoff),
                 [this] { return shutdown_; });
    if (shutdown_ || sticky_) {
      continue;  // loop head re-checks and exits
    }

    if (stats_ != nullptr) {
      stats_->auto_recovery_attempts.fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t epoch_before = epoch_;
    lock.unlock();
    Status probe = probe_();
    lock.lock();
    if (shutdown_ || sticky_) {
      continue;
    }
    if (probe.ok()) {
      if (epoch_ != epoch_before) {
        // A new error arrived while the probe ran; its write may have raced
        // the probe's success. Start the cycle over rather than declare
        // victory on stale evidence. (The report already consumed an
        // attempt, so the budget keeps draining.)
        continue;
      }
      // Resume first, publish after: until resume() has cleared the owner's
      // error, health() must not read healthy while the owner still fails
      // calls with the old error.
      lock.unlock();
      resume_();
      lock.lock();
      if (shutdown_ || sticky_ || epoch_ != epoch_before) {
        // An error reported during the resume keeps the DB degraded; the
        // loop head retries.
        continue;
      }
      AccumulateDegradedLocked(clock_->NowMicros());
      health_ = DBHealth::kHealthy;
      cause_ = Status::OK();
      if (stats_ != nullptr) {
        stats_->auto_recovery_successes.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      lock.unlock();
      notify_();
      lock.lock();
      // The retry budget is NOT reset here: a probe only shows the scratch
      // file is writable, not that the failing job's own path healed. Only
      // a real job success (ReportSuccess) refills it, so a job that keeps
      // failing across resume churn still escalates to read-only.
      continue;
    }
    attempt_++;
    if (health_ == DBHealth::kDegraded && attempt_ > policy_.max_retries) {
      health_ = DBHealth::kReadOnly;
      lock.unlock();
      notify_();  // wake stalled writers: the wait is over, writes now fail
      lock.lock();
    }
  }
  recovery_running_ = false;
  cv_.notify_all();
}

void ErrorHandler::ReportSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  attempt_ = 0;
}

void ErrorHandler::Shutdown() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    AccumulateDegradedLocked(clock_->NowMicros());
    cv_.notify_all();
    if (recovery_thread_.joinable()) {
      to_join = std::move(recovery_thread_);
    }
  }
  if (to_join.joinable()) {
    to_join.join();
  }
}

void ErrorHandler::TEST_SetRetryPolicy(const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
  jitter_rng_.seed(policy.seed);
}

DBHealth ErrorHandler::TEST_WaitForQuiescent() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !recovery_running_; });
  return health_;
}

}  // namespace lethe
