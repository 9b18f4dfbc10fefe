#include "src/lsm/db_impl.h"

#include <algorithm>

#include "src/lsm/db_impl_internal.h"
#include "src/lsm/sharded_db.h"

namespace lethe {

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* db) {
  LETHE_RETURN_IF_ERROR(options.Validate());
  if (options.num_shards > 1) {
    return OpenShardedDB(options, name, db);
  }
  auto impl = std::make_unique<DBImpl>(options, name);
  LETHE_RETURN_IF_ERROR(impl->Init());
  *db = std::move(impl);
  return Status::OK();
}

DBImpl::DBImpl(const Options& options, std::string name, ShardContext shard)
    : options_(options.WithDefaults()),
      dbname_(std::move(name)),
      shard_(std::move(shard)) {
  if (shard_.scheduler != nullptr) {
    bg_ = shard_.scheduler;
    bg_owner_ = bg_->RegisterOwner();
  } else {
    bg_ = std::make_shared<BackgroundScheduler>(options_.background_threads,
                                                &stats_);
  }
  // Backoff is wall-clock even when options_.clock is logical: recovery
  // waits for the outside world (disk, space), not for DB-internal time.
  err_ = std::make_unique<ErrorHandler>(
      ErrorHandler::RetryPolicy{}, SystemClock::Default(), &stats_,
      /*probe=*/[this] { return ProbeStorage(); },
      /*resume=*/[this] { ResumeFromBackgroundError(); },
      /*notify=*/[this] {
        std::lock_guard<std::mutex> lock(mu_);
        bg_work_done_cv_.notify_all();
      });
}

DBImpl::~DBImpl() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;  // rejects new writes and new background enqueues
    // Wake exclusive jobs parked on the in-flight registry so they observe
    // closed_ and exit instead of waiting out a shutdown that is waiting
    // for them.
    bg_work_done_cv_.notify_all();
  }
  // Join the recovery thread before the scheduler: its resume callback may
  // be blocked on mu_ (not held here), and it must not probe an env the
  // owner is about to tear down.
  err_->Shutdown();
  // Leave the pool as an owner: discard this DB's queued jobs and wait out
  // its in-flight ones. In a shared pool (ShardedDB) sibling shards' jobs
  // keep running untouched; when this DBImpl owns the scheduler alone, shut
  // the pool down afterwards.
  bg_->DetachOwner(bg_owner_);
  if (shard_.scheduler == nullptr) {
    bg_->Shutdown();
  }
  {
    // Single-threaded from here on. Drain the memtables whose flush jobs
    // were discarded: their content is also in the per-memtable WALs, but
    // draining keeps close lossless when the WAL is disabled. Best effort —
    // on failure the WALs stay behind for recovery to replay.
    std::unique_lock<std::mutex> l(mu_);
    while (!imm_.empty() && bg_error_.ok()) {
      bool deferred = false;
      if (!FlushMemTable(&imm_.front(), l, &deferred).ok() || deferred) {
        break;
      }
    }
    // Look-aheads still parked behind a memtable that could not flush:
    // drop their outputs; their WALs stay behind for recovery.
    for (ImmMemTable& imm : imm_) {
      if (imm.parked_edit) {
        RemoveFailedMergeOutputs(options_.env, dbname_,
                                 versions_->table_cache(), *imm.parked_edit);
        imm.parked_edit.reset();
        imm.parked_claim.Release();
      }
    }
    // Apply the pending secondary deletes once every memtable is on disk.
    // Best effort too: on failure the MANIFEST keeps the set, and the
    // entries stay hidden after the next Open. A failed Init may have left
    // no version at all.
    std::shared_ptr<const Version> version =
        versions_ != nullptr ? versions_->current() : nullptr;
    std::shared_ptr<const SecondaryDeleteSet> pending =
        version != nullptr ? version->secondary_deletes() : nullptr;
    if (pending != nullptr && imm_.empty() && bg_error_.ok()) {
      ApplySecondaryDeletesLocked(*pending, /*pending=*/true, l).ok();
    }
  }
  if (wal_ != nullptr) {
    wal_->Close().ok();
  }
  if (versions_ != nullptr) {
    // No readers remain: reap every table file still parked awaiting
    // snapshot release.
    versions_->SweepAllObsoleteFiles();
  }
}

void DBImpl::MaybeScheduleFlushLocked() {
  if (closed_ || !bg_error_.ok()) {
    return;
  }
  if (imm_.empty()) {
    flush_deferred_ = false;  // nothing left to park on
    return;
  }
  if (exclusive_waiters_ > 0) {
    // Let the registry drain: the waiting exclusive job flushes the
    // pre-call memtables itself, and its commit re-arms this chain. A
    // continuously re-armed chain could otherwise out-race the waiter for
    // the registry forever (condition variables give no fairness).
    return;
  }
  if (flush_deferred_) {
    // Parked on an in-flight merge's footprint; only that merge's commit
    // (UnregisterJobLocked clears the flag first) re-arms the chain.
    // Without this, every stalled-writer wakeup would requeue a flush job
    // that immediately re-defers, ping-ponging until the blocker commits.
    return;
  }
  if (flush_jobs_unstarted_ > 0 ||
      flush_jobs_ >= options_.background_threads) {
    return;  // a queued job takes the next memtable, or the slots are full
  }
  if (NextFlushCandidateLocked() == nullptr) {
    return;  // all building, the next overlaps one, or the front is held
  }
  if (l0_saturated_ && compaction_jobs_ > 0 &&
      static_cast<int>(imm_.size()) < options_.max_imm_memtables) {
    // L0 is over capacity and a compaction job is queued or running: yield
    // one round so the compaction's pick can claim the L0 run. A leveled
    // flush rewrites the whole run, so an unyielding chain re-claims L0 the
    // instant each flush commits and the compaction never finds it free —
    // the run then snowballs and every flush rewrites the growing pile.
    // Bounded: a full imm backlog flushes regardless (writers are already
    // paying the stall either way), and the chain is re-armed by the
    // compaction's commit (UnregisterJobLocked), by BackgroundCompaction's
    // exit when the pick came up empty, and by every memtable switch.
    return;
  }
  flush_jobs_++;
  flush_jobs_unstarted_++;
  bg_jobs_inflight_++;
  if (!bg_->Schedule(BackgroundScheduler::Priority::kFlush,
                     [this] { BackgroundFlush(); }, bg_owner_)) {
    flush_jobs_--;
    flush_jobs_unstarted_--;
    bg_jobs_inflight_--;  // shutting down; the destructor drains imm_
  }
}

DBImpl::ImmMemTable* DBImpl::NextFlushCandidateLocked() {
  auto overlaps = [](const MemTable& a, const MemTable& b) {
    return !a.has_span() || !b.has_span() ||
           (Slice(a.smallest()).compare(Slice(b.largest())) <= 0 &&
            Slice(b.smallest()).compare(Slice(a.largest())) <= 0);
  };
  for (auto it = imm_.begin(); it != imm_.end(); ++it) {
    if (it->building || it->parked_edit) {
      continue;
    }
    if (it == imm_.begin() && HoldForNextSealLocked(*it)) {
      return nullptr;
    }
    // A look-ahead installs after every older memtable, and shares no key
    // with one, so the order its keys reach the version in is unchanged.
    for (auto older = imm_.begin(); older != it; ++older) {
      if (overlaps(*older->mem, *it->mem)) {
        return nullptr;
      }
    }
    return &*it;
  }
  return nullptr;
}

bool DBImpl::GroupsFlushes() const {
  // Barrier mode never seals a second memtable before the first installs.
  return !barrier_mode_ && options_.max_imm_memtables >= 2 &&
         options_.compaction_style == CompactionStyle::kLeveling;
}

bool DBImpl::CutsFlushesAtL1() const {
  // Aligned L0 files pay off when FADE pushes them by tombstone age. With
  // FADE off every push is a saturation pick, which takes the file with
  // the fewest L1 bytes under it: over aligned L0 that is a small file over
  // a whole L1 file, so each merge moves little, and bench_bg_writer's
  // saturated sweep wrote 1.3-1.6x the bytes.
  return GroupsFlushes() && options_.fade_enabled();
}

bool DBImpl::HoldForNextSealLocked(const ImmMemTable& imm) const {
  // A leveled flush rewrites every L0 file its span overlaps, or, where it
  // cuts at L1 boundaries, adds an L0 run over them; waiting for the next
  // seal halves those rewrites or runs. The writer never stalls on the
  // wait: the held memtable takes one of max_imm_memtables >= 2 slots. A
  // FADE tombstone ends the wait at hold_release_.
  if (imm_.size() != 1 || flush_waiters_ > 0 || imm.flush_started ||
      !imm.mem->has_span() || !GroupsFlushes() ||
      options_.clock->NowMicros() > hold_release_) {
    return false;
  }
  return !versions_->current()
              ->OverlappingFiles(0, Slice(imm.mem->smallest()),
                                 Slice(imm.mem->largest()))
              .empty();
}

// ---- scheduling -----------------------------------------------------------

void DBImpl::MaybeScheduleCompactionLocked() {
  if (closed_ || !bg_error_.ok()) {
    return;
  }
  if (compaction_jobs_ >= options_.background_threads) {
    return;  // the pool is saturated; completions re-arm
  }
  if (compaction_backoff_) {
    return;  // last probe found nothing unclaimed; a commit re-arms
  }
  if (exclusive_waiters_ > 0) {
    return;  // let the registry drain so the exclusive job can claim it
  }
  // Strictly past the expiry: the picker fires on age > TTL, so at the
  // expiry instant itself it would find nothing and the job would no-op.
  const bool ttl_due = options_.clock->NowMicros() > earliest_ttl_expiry_;
  if (!saturation_pending_ && !ttl_due && !compaction_deferred_) {
    return;
  }
  // The paper's priority rule: delete-driven (TTL) work outranks
  // space-driven (saturation) work; the picker applies the same precedence
  // when the job runs.
  const auto priority =
      ttl_due ? BackgroundScheduler::Priority::kDeleteDrivenCompaction
              : BackgroundScheduler::Priority::kSpaceDrivenCompaction;
  compaction_deferred_ = false;
  compaction_jobs_++;
  bg_jobs_inflight_++;
  if (!bg_->Schedule(priority, [this] { BackgroundCompaction(); },
                     bg_owner_)) {
    compaction_jobs_--;
    bg_jobs_inflight_--;
  }
}

void DBImpl::UnregisterJobLocked(uint64_t job_id) {
  versions_->UnregisterInFlightJob(job_id);
  // Work that parked on this job's footprint re-arms now. Both calls are
  // guarded no-ops when nothing is due, so this never self-amplifies: a
  // deferring job does NOT re-arm itself (that would spin); only real
  // completions do.
  // The claim set changed: probing makes sense again for both parked
  // chains.
  compaction_backoff_ = false;
  flush_deferred_ = false;
  // Compaction first: if this commit left L0 over capacity, the flush
  // chain sees compaction_jobs_ > 0 and yields the claim race to it.
  MaybeScheduleCompactionLocked();
  MaybeScheduleFlushLocked();
  bg_work_done_cv_.notify_all();
}

void DBImpl::BackgroundFlush() {
  std::unique_lock<std::mutex> l(mu_);
  flush_jobs_unstarted_--;
  bool deferred = false;
  if (!closed_ && bg_error_.ok()) {
    ImmMemTable* imm = NextFlushCandidateLocked();
    Status s = imm != nullptr ? FlushMemTable(imm, l, &deferred) : Status::OK();
    if (!s.ok()) {
      RecordBackgroundErrorLocked(BackgroundJobKind::kFlush, s);
    }
    if (deferred) {
      flush_deferred_ = true;
      stats_.bg_jobs_deferred_overlap.fetch_add(1, std::memory_order_relaxed);
    }
    MaybeScheduleCompactionLocked();
  }
  flush_jobs_--;
  if (!deferred) {
    MaybeScheduleFlushLocked();  // next link in the chain
  }
  bg_jobs_inflight_--;
  MaybeRunPendingOrphanSweepLocked();
  bg_work_done_cv_.notify_all();
}

void DBImpl::ArmSecondaryDeleteBatchLocked() {
  if (srd_batch_mem_ != nullptr) {
    return;  // a pending delete armed it already
  }
  srd_batch_mem_ = mem_.get();
  if (options_.fade_enabled()) {
    srd_batch_due_ = options_.clock->NowMicros() +
                     options_.delete_persistence_threshold_micros / 2;
  }
}

void DBImpl::MaybeScheduleSecondaryDeleteBatchLocked() {
  if (closed_ || !bg_error_.ok() || srd_batch_scheduled_ ||
      versions_->current()->secondary_deletes() == nullptr) {
    return;
  }
  srd_batch_scheduled_ = true;
  bg_jobs_inflight_++;
  if (!bg_->Schedule(BackgroundScheduler::Priority::kSecondaryDelete,
                     [this] { SecondaryDeleteBatch(); }, bg_owner_)) {
    srd_batch_scheduled_ = false;
    bg_jobs_inflight_--;  // shutting down; the destructor applies the set
  }
}

void DBImpl::SecondaryDeleteBatch() {
  std::unique_lock<std::mutex> l(mu_);
  std::shared_ptr<const SecondaryDeleteSet> batch =
      versions_->current()->secondary_deletes();
  if (!closed_ && bg_error_.ok() && batch != nullptr) {
    // Deletes registered from here on arm the next batch. The capture and
    // the choice of memtables to flush share this mu_ hold: every memtable
    // sealed before a captured delete is flushed (and filtered) before the
    // pass.
    srd_batch_mem_ = nullptr;
    srd_batch_due_ = UINT64_MAX;
    FootprintClaim claim;
    Status s = AcquireExclusiveLocked(&claim, srd_flush_through_.lock(), l);
    if (s.ok()) {
      s = ApplySecondaryDeletesLocked(*batch, /*pending=*/true, l);
    }
    if (!s.ok()) {
      RecordBackgroundErrorLocked(BackgroundJobKind::kSecondaryDelete, s);
    }
  }
  srd_batch_scheduled_ = false;
  bg_jobs_inflight_--;
  if (srd_batch_mem_ != nullptr && srd_batch_mem_ != mem_.get()) {
    // The next batch's memtable sealed while this one ran.
    MaybeScheduleSecondaryDeleteBatchLocked();
  }
  MaybeRunPendingOrphanSweepLocked();
  bg_work_done_cv_.notify_all();
}

void DBImpl::BackgroundCompaction() {
  std::unique_lock<std::mutex> l(mu_);
  bool deferred = false;
  if (!closed_ && bg_error_.ok()) {
    std::shared_ptr<const Version> version = versions_->current();
    CompactionPick pick = picker_->Pick(
        *version, options_.clock->NowMicros(),
        &versions_->InFlightInputFiles(), OldestSnapshotLocked());
    if (pick.valid()) {
      Status s = CompactOnce(pick, l, &deferred);
      if (!s.ok()) {
        RecordBackgroundErrorLocked(BackgroundJobKind::kCompaction, s);
      }
    } else if (versions_->InFlightJobCount() > 0) {
      // Nothing unclaimed to work on; stop trigger-based scheduling until
      // an in-flight merge commits (its UnregisterJobLocked re-arms). With
      // an empty registry no commit would come to clear the flag — the
      // pick came up empty for real, and RefreshTriggerStateLocked below
      // resets the triggers instead.
      compaction_backoff_ = true;
    }
    RefreshTriggerStateLocked();
    compaction_jobs_--;
    if (deferred) {
      // Park: the blocking job's completion re-arms via
      // UnregisterJobLocked; re-arming here would spin through the queue.
      // Backoff too — otherwise every write-path probe would requeue this
      // same doomed pick until the blocker commits.
      compaction_deferred_ = true;
      compaction_backoff_ = true;
      stats_.bg_jobs_deferred_overlap.fetch_add(1, std::memory_order_relaxed);
    } else {
      MaybeScheduleCompactionLocked();  // one pick per job; re-arm if needed
    }
  } else {
    compaction_jobs_--;
  }
  // Un-park a flush chain that yielded its L0 claim to this job: if the
  // pick came up empty (no commit, so no UnregisterJobLocked re-arm) and
  // no further compaction is queued, the flush must not stay parked.
  MaybeScheduleFlushLocked();
  bg_jobs_inflight_--;
  MaybeRunPendingOrphanSweepLocked();
  bg_work_done_cv_.notify_all();
}

Status DBImpl::AcquireExclusiveLocked(FootprintClaim* claim,
                                      std::shared_ptr<MemTable> flush_through,
                                      std::unique_lock<std::mutex>& l) {
  // Announce intent first: MaybeScheduleCompactionLocked stops launching
  // new compaction jobs while an exclusive job waits, so under sustained
  // write load the registry actually drains instead of starving us.
  exclusive_waiters_++;
  // Only the memtables already frozen when the call was made must reach
  // disk (pre-call entries in the *active* memtable were handled under the
  // write token). Draining newer ones too would livelock against
  // sustained ingest — writers can freeze memtables as fast as one worker
  // flushes them. Memtables install oldest-first, so the pre-call ones are
  // all on disk once the newest of them has left imm_.
  const std::shared_ptr<MemTable> newest_pre_call = std::move(flush_through);
  Status s;
  while (true) {
    if (closed_) {
      s = Status::InvalidArgument("DB is closed");
      break;
    }
    if (!bg_error_.ok()) {
      s = bg_error_;
      break;
    }
    bool pre_call_pending = false;
    bool parked = false;
    for (const ImmMemTable& imm : imm_) {
      pre_call_pending |= imm.mem == newest_pre_call;
      parked |= imm.parked_edit.has_value();
    }
    if (pre_call_pending || parked) {
      // Flush the front on this worker when no job is building it, so the
      // exclusive job sees every pre-call write on disk (the
      // flush-outranks-us contract), and so a parked look-ahead — whose
      // claim would keep the registry from draining — can install. Flush
      // scheduling is paused while we wait, so nobody else would. A front
      // a job is building installs on its own; wait for it.
      if (imm_.front().building) {
        bg_work_done_cv_.wait(l);
        continue;
      }
      bool deferred = false;
      s = FlushMemTable(&imm_.front(), l, &deferred);
      if (!s.ok()) {
        break;
      }
      if (deferred) {
        bg_work_done_cv_.wait(l);
      }
      continue;
    }
    JobFootprint footprint;
    footprint.exclusive = true;
    if (!versions_->ConflictsWithInFlight(footprint)) {
      // The check and the claim share this mutex hold, so two exclusive
      // jobs can never both slip past an empty registry.
      *claim = FootprintClaim(this, footprint);
      break;
    }
    bg_work_done_cv_.wait(l);
  }
  exclusive_waiters_--;
  if (!s.ok()) {
    // We suppressed background scheduling while waiting but will not
    // commit anything to re-arm it; hand the baton back.
    MaybeScheduleFlushLocked();
    MaybeScheduleCompactionLocked();
  }
  return s;
}

Status DBImpl::RunOnWorkerAndWait(
    BackgroundScheduler::Priority priority, BackgroundJobKind kind,
    const std::function<Status(std::unique_lock<std::mutex>&)>& fn,
    std::unique_lock<std::mutex>& l) {
  struct JobResult {
    Status status;
    bool done = false;
  } result;  // guarded by mu_; outlives the job because we wait for done
  bg_jobs_inflight_++;
  const bool scheduled = bg_->Schedule(
      priority,
      [this, &result, &fn, kind] {
        std::unique_lock<std::mutex> jl(mu_);
        Status s;
        if (!closed_ && bg_error_.ok()) {
          s = fn(jl);
          if (!s.ok()) {
            RecordBackgroundErrorLocked(kind, s);
          }
        } else {
          s = bg_error_;
        }
        result.status = s;
        result.done = true;
        bg_jobs_inflight_--;
        MaybeRunPendingOrphanSweepLocked();
        bg_work_done_cv_.notify_all();
      },
      bg_owner_);
  if (!scheduled) {
    bg_jobs_inflight_--;
    return Status::InvalidArgument("DB is closing");
  }
  bg_work_done_cv_.wait(l, [&result] { return result.done; });
  return result.status;
}

void DBImpl::RecordBackgroundErrorLocked(BackgroundJobKind kind,
                                         const Status& s) {
  if (bg_error_.ok()) {
    bg_error_ = s;  // first error wins
  }
  // Safe with mu_ held: ReportError never invokes callbacks synchronously.
  err_->ReportError(kind, s);
  bg_work_done_cv_.notify_all();
}

Status DBImpl::ProbeStorage() {
  // Runs on the recovery thread with no DB lock held; the probe file name is
  // fixed and never collides with numbered DB files.
  const std::string probe_name = dbname_ + "/HEALTHCHECK";
  std::unique_ptr<WritableFile> file;
  LETHE_RETURN_IF_ERROR(options_.env->NewWritableFile(probe_name, &file));
  LETHE_RETURN_IF_ERROR(file->Append(Slice("lethe-health-probe")));
  LETHE_RETURN_IF_ERROR(file->Sync());
  LETHE_RETURN_IF_ERROR(file->Close());
  options_.env->RemoveFile(probe_name).ok();
  return Status::OK();
}

void DBImpl::MaybeRunPendingOrphanSweepLocked() {
  if (orphan_sweep_pending_ && !closed_ && bg_error_.ok() &&
      bg_jobs_inflight_ == 0 && versions_->InFlightJobCount() == 0) {
    orphan_sweep_pending_ = false;
    RemoveOrphanFilesLocked().ok();
  }
}

void DBImpl::ResumeFromBackgroundError() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || bg_error_.ok()) {
    return;
  }
  bg_error_ = Status::OK();
  // The failed job may have left its park/backoff latches set with no
  // commit coming to clear them; release the gates (compaction_deferred_ is
  // a schedule *trigger*, consumed below, so it stays). Re-stake the
  // memtable reservation, re-arm both chains, wake stalled writers.
  compaction_backoff_ = false;
  flush_deferred_ = false;
  if (bg_jobs_inflight_ == 0 && versions_->InFlightJobCount() == 0) {
    // Reclaim outputs the aborted merges left behind (partially written
    // files their failure path could not name). Only safe with no job in
    // flight: a running merge's outputs are not yet referenced anywhere.
    RemoveOrphanFilesLocked().ok();
  } else {
    // A job is still draining (or a retry is already queued): defer the
    // sweep to the moment the registry empties, or the aborted outputs of
    // every failed attempt accumulate until the next reopen.
    orphan_sweep_pending_ = true;
  }
  UpdateMemtableReservationLocked();
  RefreshTriggerStateLocked();
  MaybeScheduleFlushLocked();
  MaybeScheduleCompactionLocked();
  MaybeScheduleSecondaryDeleteBatchLocked();  // retries a failed batch
  bg_work_done_cv_.notify_all();
}

Status DBImpl::WaitForFlushLocked(std::unique_lock<std::mutex>& l) {
  while (!imm_.empty() || srd_batch_scheduled_) {
    if (!bg_error_.ok()) {
      return bg_error_;
    }
    if (closed_) {
      return Status::InvalidArgument("DB is closed");
    }
    bg_work_done_cv_.wait(l);
  }
  return bg_error_;
}

// ---- maintenance API ------------------------------------------------------

Status DBImpl::Flush() {
  std::unique_lock<std::mutex> l(mu_);
  if (closed_) {
    return Status::InvalidArgument("DB is closed");
  }
  Writer w(nullptr, false);
  JoinWriterQueue(&w, l);
  // The switch first, so a held memtable shares its flush with this one.
  Status s = bg_error_.ok() ? SwitchMemTableLocked() : bg_error_;
  FlushWaiter waiter(this);
  if (s.ok()) {
    s = DrainLocked(l);  // barrier mode: the flush and what it triggers
  }
  CompleteGroup(&w, &w, s, l);  // release the token before waiting
  return s.ok() ? WaitForFlushLocked(l) : s;
}

Status DBImpl::WaitForCompact() {
  std::unique_lock<std::mutex> l(mu_);
  FlushWaiter waiter(this);
  while (true) {
    if (!bg_error_.ok()) {
      return bg_error_;
    }
    if (closed_) {
      return Status::InvalidArgument("DB is closed");
    }
    // Defensive re-arm: parked work with no running job left to wake it
    // (can only happen if a completion raced shutdown of its re-arm).
    if (bg_jobs_inflight_ == 0) {
      compaction_backoff_ = false;
      if (flush_deferred_) {
        flush_deferred_ = false;
        MaybeScheduleFlushLocked();
      }
      if (compaction_deferred_) {
        MaybeScheduleCompactionLocked();
      }
    }
    const bool busy = !imm_.empty() || bg_jobs_inflight_ > 0 ||
                      flush_deferred_ || compaction_deferred_ ||
                      versions_->InFlightJobCount() > 0;
    if (!busy && versions_->current()->secondary_deletes() != nullptr) {
      // Deletes registered after this waiter's batch: run them too.
      MaybeScheduleSecondaryDeleteBatchLocked();
      if (!srd_batch_scheduled_) {
        return bg_error_;  // scheduler is shutting down
      }
      continue;
    }
    if (!busy) {
      RefreshTriggerStateLocked();
      std::shared_ptr<const Version> version = versions_->current();
      if (!picker_->Pick(*version, options_.clock->NowMicros(), nullptr,
                         OldestSnapshotLocked())
               .valid()) {
        // Quiescent: nothing queued, nothing to pick. Reap obsolete files
        // whose pinning snapshots have since been released — no future
        // commit may come to do it.
        versions_->SweepObsoleteFiles();
        return Status::OK();
      }
      compaction_backoff_ = false;  // the probe proved there is work
      MaybeScheduleCompactionLocked();
      if (compaction_jobs_ == 0) {
        // The cached triggers disagree with the picker (e.g. a TTL edge);
        // force one compaction round rather than spinning.
        saturation_pending_ = true;
        MaybeScheduleCompactionLocked();
        if (compaction_jobs_ == 0) {
          return bg_error_;  // scheduler is shutting down
        }
      }
      continue;
    }
    bg_work_done_cv_.wait(l);
  }
}

Status DBImpl::CompactUntilQuiescent() {
  LETHE_RETURN_IF_ERROR(Flush());
  return WaitForCompact();
}

Status DBImpl::CompactAll() {
  std::unique_lock<std::mutex> l(mu_);
  if (closed_) {
    return Status::InvalidArgument("DB is closed");
  }
  Writer w(nullptr, false);
  JoinWriterQueue(&w, l);
  Status s = bg_error_.ok() ? SwitchMemTableLocked() : bg_error_;
  CompleteGroup(&w, &w, s, l);
  LETHE_RETURN_IF_ERROR(s);
  // Run the merge on a worker; it consumes every file in the tree, so it
  // first flushes the frozen memtables (the one just switched out
  // included), drains the registry, and claims the whole tree (exclusive).
  s = RunOnWorkerAndWait(
      BackgroundScheduler::Priority::kSpaceDrivenCompaction,
      BackgroundJobKind::kCompaction,
      [this](std::unique_lock<std::mutex>& jl) {
        FootprintClaim claim;
        LETHE_RETURN_IF_ERROR(AcquireExclusiveLocked(&claim, jl));
        return CompactAllLocked(jl);
      },
      l);
  return s.ok() ? DrainLocked(l) : s;
}

// ---- reads ----------------------------------------------------------------

Status DBImpl::LogAndApplyLocked(VersionEdit* edit) {
  LETHE_RETURN_IF_ERROR(versions_->LogAndApply(
      edit, imm_.empty() ? kMaxSequenceNumber : imm_.front().first_seq));
  PublishReadStateLocked();
  return Status::OK();
}

void DBImpl::PublishReadStateLocked() {
  ReadState state{mem_, {}, versions_->current()};
  for (const ImmMemTable& imm : imm_) {
    state.imm.push_back(imm.mem);
  }
  read_state_.store(std::make_shared<const ReadState>(std::move(state)));
}

ReadSnapshot DBImpl::GetReadSnapshot(const Snapshot* pinned) const {
  ReadSnapshot snap;
  // The bound first: a state loaded after it holds every memtable, or the
  // version it flushed into, that took a sequence at or below it.
  snap.bound =
      pinned != nullptr ? pinned->sequence() : versions_->LastSequence();
  // A load, spelled as a compare-exchange that fails (the state is never
  // null): libstdc++ 12's load() drops its spin bit with a relaxed RMW, so
  // nothing orders its read before the next publish (TSan reports it); a
  // failed compare-exchange drops the bit with a seq_cst RMW.
  read_state_.compare_exchange_strong(snap.state, nullptr);
  return snap;
}

const Snapshot* DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  // LastSequence is published only after its group is fully applied
  // (ApplyGroup pass 3), so the pinned view never splits a batch.
  return snapshots_.New(versions_->LastSequence(),
                        options_.clock->NowMicros());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const bool was_oldest = snapshots_.IsOldest(snapshot);
  snapshots_.Delete(snapshot);
  if (was_oldest) {
    // The oldest snapshot is what keeps the picker off a bottommost file
    // whose tombstones it pinned and off a past-due file it blocked. Re-arm
    // the triggers now: an idle DB has no commit coming to do it.
    RefreshTriggerStateLocked();
    MaybeScheduleCompactionLocked();
  }
}

std::vector<LevelSnapshot> DBImpl::GetLevelSnapshots() {
  std::shared_ptr<const Version> version = GetReadSnapshot().state->version;
  uint64_t now = options_.clock->NowMicros();
  std::vector<LevelSnapshot> result;
  for (int level = 0; level < version->num_levels(); level++) {
    LevelSnapshot snap;
    snap.level = level + 1;  // paper numbering: Level 0 is the buffer
    snap.num_runs = version->LevelRunCount(level);
    for (const SortedRun& run : version->levels()[level]) {
      for (const auto& file : run.files) {
        snap.num_files++;
        snap.num_entries += file->num_entries;
        snap.num_point_tombstones += file->num_point_tombstones;
        snap.num_range_tombstones += file->num_range_tombstones;
        snap.num_pages += file->num_pages;
        snap.bytes += file->file_size;
        snap.oldest_tombstone_age_micros = std::max(
            snap.oldest_tombstone_age_micros, file->TombstoneAge(now));
      }
    }
    result.push_back(snap);
  }
  return result;
}

std::vector<TombstoneAgeSample> DBImpl::GetTombstoneAges() {
  std::shared_ptr<const Version> version = GetReadSnapshot().state->version;
  uint64_t now = options_.clock->NowMicros();
  std::vector<TombstoneAgeSample> result;
  for (const auto& [level, file] : version->AllFiles()) {
    if (!file->HasTombstones()) {
      continue;
    }
    TombstoneAgeSample sample;
    sample.level = level + 1;
    sample.age_micros = file->TombstoneAge(now);
    sample.num_point_tombstones = file->num_point_tombstones;
    result.push_back(sample);
  }
  return result;
}

uint64_t DBImpl::ApproximateEntryCount() const {
  ReadSnapshot snap = GetReadSnapshot();
  uint64_t count =
      snap.version().TotalLiveEntries() + snap.mem()->num_entries();
  for (const auto& imm : snap.imm()) {
    count += imm->num_entries();
  }
  return count;
}

Status DBImpl::ComputeSpaceAmplification(double* samp) {
  uint64_t total = ApproximateEntryCount();
  uint64_t unique = 0;
  auto it = NewIterator(ReadOptions());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    unique++;
  }
  LETHE_RETURN_IF_ERROR(it->status());
  if (unique == 0) {
    *samp = total > 0 ? static_cast<double>(total) : 0.0;
    return Status::OK();
  }
  *samp = static_cast<double>(total - unique) / static_cast<double>(unique);
  return Status::OK();
}

Status DBImpl::TEST_VerifyTreeInvariants() {
  std::shared_ptr<const Version> version = GetReadSnapshot().state->version;
  for (int level = 0; level < version->num_levels(); level++) {
    const auto& runs = version->levels()[level];
    // Leveling keeps one run per level, but for the tiered L0 runs flushes
    // write when they cut at L1 boundaries.
    if (options_.compaction_style == CompactionStyle::kLeveling &&
        runs.size() > 1 && !(level == 0 && CutsFlushesAtL1())) {
      return Status::Corruption("leveling holds " +
                                std::to_string(runs.size()) +
                                " runs at level " + std::to_string(level));
    }
    for (size_t r = 1; r < runs.size(); r++) {
      if (runs[r - 1].run_id >= runs[r].run_id) {
        return Status::Corruption("run ids do not ascend at level " +
                                  std::to_string(level));
      }
    }
    for (const SortedRun& run : runs) {
      for (size_t i = 0; i < run.files.size(); i++) {
        const FileMeta& file = *run.files[i];
        if (Slice(file.smallest_key).compare(Slice(file.largest_key)) > 0) {
          return Status::Corruption("inverted key range in file " +
                                    std::to_string(file.file_number));
        }
        if (i > 0 && Slice(run.files[i - 1]->largest_key)
                             .compare(Slice(file.smallest_key)) > 0) {
          return Status::Corruption(
              "overlapping files within a run at level " +
              std::to_string(level));
        }
        if (!options_.env->FileExists(
                TableFileName(dbname_, file.file_number))) {
          return Status::Corruption("referenced table file missing: " +
                                    TableFileName(dbname_, file.file_number));
        }
      }
    }
  }
  return Status::OK();
}

std::vector<FileMeta> DBImpl::TEST_LevelFiles(int level) {
  std::shared_ptr<const Version> version = GetReadSnapshot().state->version;
  std::vector<FileMeta> files;
  if (level < version->num_levels()) {
    for (const SortedRun& run : version->levels()[level]) {
      for (const auto& file : run.files) {
        files.push_back(*file);
      }
    }
  }
  return files;
}

}  // namespace lethe
