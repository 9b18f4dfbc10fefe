#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "src/lsm/db_impl.h"
#include "src/lsm/db_impl_internal.h"

namespace lethe {

namespace {

// Write throttling in background mode (cf. "Breaking Down Memory Walls":
// once background work decouples from the foreground, the slowdown/stall
// policy must be explicit). When Level 0 holds kL0SlowdownRuns sorted runs,
// each write group is delayed once by kSlowdownDelayMicros; at kL0StopRuns
// writers stall until a compaction reduces the count. Mainly effective under
// tiering, where L0 accumulates runs; under leveling the flush merges into
// L0 and backpressure comes from Options::max_imm_memtables.
constexpr int kL0SlowdownRuns = 8;
constexpr int kL0StopRuns = 12;
constexpr uint64_t kSlowdownDelayMicros = 1000;

uint64_t NowSteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---- write path -----------------------------------------------------------

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   uint64_t delete_key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, delete_key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::RangeDelete(const WriteOptions& options, const Slice& begin_key,
                           const Slice& end_key) {
  WriteBatch batch;
  batch.RangeDelete(begin_key, end_key);
  return Write(options, &batch);
}

void DBImpl::JoinWriterQueue(Writer* w, std::unique_lock<std::mutex>& l) {
  writers_.push_back(w);
  while (!w->done && w != writers_.front()) {
    w->cv.wait(l);
  }
}

void DBImpl::CompleteGroup(Writer* self, Writer* last, const Status& s,
                           std::unique_lock<std::mutex>&) {
  while (!writers_.empty()) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != self) {
      ready->status = s;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last) {
      break;
    }
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
}

std::vector<DBImpl::Writer*> DBImpl::BuildBatchGroup(Writer** last) {
  // Bound the group so one giant batch does not add unbounded latency to a
  // small writer that merged behind it.
  static constexpr size_t kMaxGroupBytes = 1 << 20;
  std::vector<Writer*> group;
  size_t bytes = 0;
  for (Writer* writer : writers_) {
    if (writer->batch == nullptr) {
      break;  // exclusive op (flush/SRD): never merged into a group
    }
    if (!group.empty() && (writer->validation_keys != nullptr ||
                           group.front()->validation_keys != nullptr)) {
      break;  // a txn commit is a solo group: its leader validated it alone
    }
    if (!group.empty() && writer->sync && !group.front()->sync) {
      break;  // do not impose a sync on writers that did not ask for one
    }
    bytes += writer->batch->ApproximateBytes();
    if (!group.empty() && bytes > kMaxGroupBytes) {
      break;
    }
    group.push_back(writer);
  }
  *last = group.back();
  return group;
}

template <typename Apply>
Status DBImpl::LogApplyPublish(WalWriter* wal, const Slice& framed, bool sync,
                               SequenceNumber last_seq, Apply&& apply) {
  if (wal != nullptr) {
    bool appended = false;
    Status s = wal->AddFramed(framed, sync, &appended);
    if (appended) {
      stats_.wal_appends.fetch_add(1, std::memory_order_relaxed);
    }
    if (!s.ok()) {
      // If bytes may have reached the log (append succeeded, sync failed)
      // the sequences must be burned — published so recovery's replay of
      // those bytes cannot collide with a later ack — but they become
      // visible to no read until then. A pure append failure left nothing
      // on disk, so the numbers are reused.
      if (appended) {
        versions_->SetLastSequence(last_seq);
      }
      return s;
    }
    if (sync) {
      stats_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  apply();
  // Publish only after the apply: a snapshot pinned at LastSequence must
  // observe each batch atomically (all of its entries or none), never a
  // half-applied group.
  versions_->SetLastSequence(last_seq);
  return Status::OK();
}

Status DBImpl::ApplyGroup(const std::vector<Writer*>& group,
                          const ReadSnapshot& snap, WalWriter* wal,
                          uint64_t now, bool force_sync) {
  // Runs with mu_ released; the caller holds the write token, which is what
  // guards memtable content, WAL appends, and sequence allocation.
  //
  // Sequences are allocated locally and published by LogApplyPublish once
  // the WAL accepts the group. Only the token holder allocates, so this
  // unsynchronized read of LastSequence is safe. The ops that survive
  // filtering take consecutive sequences from first_seq, so the group logs
  // as one frame (see WalGroup).
  WalGroup logged;
  logged.first_seq = versions_->LastSequence() + 1;
  logged.time = now;
  size_t total_ops = 0;
  for (const Writer* writer : group) {
    total_ops += writer->batch->Count();
  }
  logged.ops.reserve(total_ops);

  // Pass 1: blind-delete filtering, statistics, and the list of ops to log
  // and apply. `group_live` tracks the liveness outcome of keys written
  // earlier in this group, so a Delete after a Put of the same key
  // is judged against the batch, not the stale snapshot. It is only
  // maintained when the filter is on — the default write path stays free of
  // per-op map inserts.
  const bool track_liveness = options_.filter_blind_deletes;
  std::unordered_map<std::string, bool> group_live;
  for (const Writer* writer : group) {
    for (const WriteBatch::Op op : writer->batch->ops()) {
      uint64_t delete_key = op.delete_key;
      switch (op.kind) {
        case WriteBatch::OpKind::kPut:
        case WriteBatch::OpKind::kPutExpiring:
          stats_.user_puts.fetch_add(1, std::memory_order_relaxed);
          stats_.user_bytes_written.fetch_add(
              op.key.size() + op.value.size() + 8, std::memory_order_relaxed);
          if (track_liveness) {
            group_live[op.key.ToString()] = true;
          }
          break;
        case WriteBatch::OpKind::kDelete: {
          if (options_.filter_blind_deletes) {
            auto it = group_live.find(op.key.ToString());
            const bool may_exist = it != group_live.end()
                                       ? it->second
                                       : read_path().KeyMayExist(snap, op.key);
            if (!may_exist) {
              stats_.blind_deletes_avoided.fetch_add(
                  1, std::memory_order_relaxed);
              continue;  // skip: no sequence, no WAL op, no tombstone
            }
          }
          stats_.user_deletes.fetch_add(1, std::memory_order_relaxed);
          stats_.user_bytes_written.fetch_add(op.key.size() + 8,
                                              std::memory_order_relaxed);
          // The tombstone's delete key is its creation time, so
          // timestamp-keyed secondary deletes age tombstones out with the
          // data they invalidate.
          delete_key = now;
          if (track_liveness) {
            group_live[op.key.ToString()] = false;
          }
          break;
        }
        case WriteBatch::OpKind::kRangeDelete:
          stats_.user_range_deletes.fetch_add(1, std::memory_order_relaxed);
          stats_.user_bytes_written.fetch_add(
              op.key.size() + op.end_key.size(), std::memory_order_relaxed);
          break;
      }
      // Filtered deletes consume no sequence.
      WalOp& logged_op = logged.ops.emplace_back();
      logged_op.kind = static_cast<WalOp::Kind>(op.kind);
      logged_op.key = op.key;
      logged_op.end_key = op.end_key;
      logged_op.delete_key = delete_key;
      logged_op.value = op.value;
    }
  }
  if (logged.ops.empty()) {
    return Status::OK();
  }
  if (snap.mem()->empty()) {
    // Token-guarded, like all memtable state.
    mem_first_seq_ = logged.first_seq;
    mem_first_time_ = now;
  }

  // Pass 2: the group's one frame, one physical WAL append (and at most one
  // sync) — the group-commit amortization — then pass 3: apply to the
  // memtable in order. Every writer in the group fails with a WAL error
  // (CompleteGroup propagates it to all members).
  std::string framed;
  if (wal != nullptr) {
    AppendWalGroup(logged, &framed);
  }
  const SequenceNumber last_seq = logged.first_seq + logged.ops.size() - 1;
  uint64_t tail_inserts = 0;
  LETHE_RETURN_IF_ERROR(LogApplyPublish(
      wal, framed, force_sync, last_seq, [&] {
        for (size_t i = 0; i < logged.ops.size(); i++) {
          tail_inserts += ApplyToMemTable(snap.mem(), logged.ops[i],
                                          logged.first_seq + i, now);
        }
      }));
  stats_.memtable_tail_inserts.fetch_add(tail_inserts,
                                         std::memory_order_relaxed);
  stats_.group_commit_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.group_commit_entries.fetch_add(logged.ops.size(),
                                        std::memory_order_relaxed);
  return Status::OK();
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null WriteBatch");
  }
  for (const WriteBatch::Op op : batch->ops()) {
    if (op.kind == WriteBatch::OpKind::kRangeDelete &&
        op.key.compare(op.end_key) >= 0) {
      return Status::InvalidArgument("empty range delete");
    }
  }

  Writer w(batch, options.sync);
  return WriteImpl(&w);
}

Status DBImpl::WriteValidated(const WriteOptions& options, WriteBatch* batch,
                              SequenceNumber read_snapshot_seq,
                              const std::vector<std::string>& validation_keys,
                              SequenceNumber* commit_seq) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null WriteBatch");
  }
  for (const WriteBatch::Op op : batch->ops()) {
    if (op.kind == WriteBatch::OpKind::kRangeDelete) {
      // Validation is per-key; a staged range delete would need range
      // conflict tracking. OptimisticTransaction never stages one.
      return Status::NotSupported("range deletes in validated writes");
    }
  }
  Writer w(batch, options.sync);
  w.validation_keys = &validation_keys;
  w.read_snapshot_seq = read_snapshot_seq;
  Status s = WriteImpl(&w);
  if (s.ok() && commit_seq != nullptr) {
    *commit_seq = w.commit_seq;
  }
  return s;
}

Status DBImpl::WriteImpl(Writer* w) {
  std::unique_lock<std::mutex> l(mu_);
  if (closed_) {
    return Status::InvalidArgument("DB is closed");
  }
  JoinWriterQueue(w, l);
  if (w->done) {
    return w->status;  // a leader committed this batch on our behalf
  }

  // This writer holds the write token.
  Status s = WaitForWritableLocked(l);
  Writer* last_writer = w;
  if (s.ok()) {
    MaybeSlowdownLocked(l);
    const std::vector<Writer*> group = BuildBatchGroup(&last_writer);
    size_t count = 0;
    bool force_sync = false;
    for (const Writer* writer : group) {
      count += writer->batch->Count();
      force_sync |= writer->sync;
    }
    if (count > 0 || w->validation_keys != nullptr) {
      const uint64_t now = options_.clock->NowMicros();
      // Taken under the token: no group is in flight, so the bound is every
      // committed write, as validation and the blind-delete filter need.
      ReadSnapshot snap = GetReadSnapshotLocked();
      WalWriter* wal = wal_.get();
      bool wal_failed = false;
      l.unlock();
      if (w->validation_keys != nullptr) {
        s = ValidateCommit(*w, snap);  // solo group: nothing else applies
      }
      if (s.ok() && count > 0) {
        s = ApplyGroup(group, snap, wal, now, force_sync);
        wal_failed = !s.ok();
      }
      l.lock();
      if (wal_failed) {
        // The group's WAL append/sync failed: feed the state machine so
        // recovery probes the storage and, on success, resumes writes.
        RecordBackgroundErrorLocked(BackgroundJobKind::kWalWrite, s);
      }
    }
    if (s.ok()) {
      // The token serializes commits, so this is the group's last sequence
      // (a read-only transaction's validation point when nothing applied).
      w->commit_seq = versions_->LastSequence();
      FinishWriteLocked(l);
    }
  }
  CompleteGroup(w, last_writer, s, l);
  return s;
}

Status DBImpl::ValidateCommit(const Writer& w, const ReadSnapshot& snap) {
  for (const std::string& key : *w.validation_keys) {
    NewestVersion newest;
    LETHE_RETURN_IF_ERROR(read_path().FindNewestVersion(
        snap, key, /*fill_cache=*/false, &newest));
    const SequenceNumber latest =
        std::max(newest.cover_seq, newest.found ? newest.entry.seq : 0);
    if (latest > w.read_snapshot_seq) {
      stats_.txn_conflicts.fetch_add(1, std::memory_order_relaxed);
      return Status::Busy("transaction conflict: key written since snapshot");
    }
  }
  stats_.txn_commits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void DBImpl::FinishWriteLocked(std::unique_lock<std::mutex>& l) {
  // The group is already durable and applied: failing the acked batch over
  // post-write maintenance (a memtable switch that could not start, health
  // falling to read-only mid-write, or a flush the barrier waited on) would
  // misreport applied data as lost. Genuine failures go to the state
  // machine instead; the next write rejects at entry once it is read-only.
  Status post = HandlePostWriteLocked(l);
  if (!post.ok() && bg_error_.ok() && !post.IsInvalidArgument()) {
    RecordBackgroundErrorLocked(BackgroundJobKind::kWalWrite, post);
  }
  DrainLocked(l).ok();
}

Status DBImpl::WaitForWritableLocked(std::unique_lock<std::mutex>&) {
  if (bg_error_.ok()) {
    return Status::OK();
  }
  // Degraded does not gate the write path: the WAL and the memtable are not
  // the failing component (a WAL failure fails its own write group), so
  // writes keep landing while recovery retries the background job. Waiting
  // here would also be unfair — the resume's retry re-fails and re-sets
  // bg_error_ faster than a parked writer can win the mutex, starving it.
  // The bounded stall lives at the imm-cap/L0 gate in HandlePostWriteLocked;
  // only read-only and fatal reject.
  const DBHealth health = err_->health();
  if (health == DBHealth::kDegraded || health == DBHealth::kHealthy) {
    return Status::OK();
  }
  return Status::IOError("DB is read-only after background error: " +
                         err_->cause().ToString());
}

int DBImpl::EffectiveL0StopTrigger() const {
  if (options_.compaction_style == CompactionStyle::kTiering) {
    return std::max(kL0StopRuns, static_cast<int>(options_.size_ratio));
  }
  return kL0StopRuns;
}

void DBImpl::MaybeSlowdownLocked(std::unique_lock<std::mutex>& l) {
  // Barrier mode starts every write at quiescence, where tiering may still
  // hold up to T-1 L0 runs: a delay there would buy the (idle) worker
  // nothing.
  if (barrier_mode_ || l0_runs_ < kL0SlowdownRuns ||
      l0_runs_ >= EffectiveL0StopTrigger()) {
    return;  // below the soft trigger, or at the hard one (stall instead)
  }
  l.unlock();
  std::this_thread::sleep_for(std::chrono::microseconds(kSlowdownDelayMicros));
  l.lock();
  stats_.write_slowdowns.fetch_add(1, std::memory_order_relaxed);
}

Status DBImpl::HandlePostWriteLocked(std::unique_lock<std::mutex>& l) {
  // Sizing mem_ requires the write token (held here); the measured value
  // is cached so token-less paths (background flush commit) can re-stake
  // without touching the arena. The stake is quantized *up* to 4 KB: the
  // budget bound stays conservative, and the common write's cost here is
  // one comparison instead of a walk over every cache shard.
  if (memtable_reservation_.active()) {
    constexpr size_t kStakeQuantum = 4096;
    const size_t staked =
        (mem_->ApproximateMemoryUsage() + kStakeQuantum - 1) /
        kStakeQuantum * kStakeQuantum;
    if (staked != mem_staked_bytes_) {
      mem_staked_bytes_ = staked;
      UpdateMemtableReservationLocked();
    }
  }
  const uint64_t now = options_.clock->NowMicros();
  auto buffer_needs_flush = [&] {
    const bool buffer_full =
        mem_->ApproximateMemoryUsage() >= options_.write_buffer_bytes;
    const bool buffer_ttl_expired =
        buffer_ttl_ != UINT64_MAX &&
        mem_->oldest_tombstone_time() != kNoTombstoneTime &&
        now - mem_->oldest_tombstone_time() > buffer_ttl_;
    return buffer_full || buffer_ttl_expired;
  };

  // The write path only swaps the memtable and enqueues the flush. Writers
  // block solely through this explicit policy.
  const int effective_stop = EffectiveL0StopTrigger();
  Status s;
  bool stalled = false;
  uint64_t stall_start = 0;
  while (buffer_needs_flush()) {
    // Degraded (or the probe→resume window) passes: the memtable can still
    // absorb writes, so switch while the imm list has room and stall at the
    // cap below like any other backlogged writer.
    s = WaitForWritableLocked(l);
    if (!s.ok()) {
      break;
    }
    if (closed_) {
      s = Status::InvalidArgument("DB is closed");
      break;
    }
    const bool imm_full =
        static_cast<int>(imm_.size()) >= options_.max_imm_memtables;
    const bool l0_stopped = l0_runs_ >= effective_stop;
    if (imm_full || l0_stopped) {
      // imm_full guarantees the flush chain is alive (scheduled or parked
      // behind an in-flight merge); l0_stopped implies the saturation
      // trigger fired (see clamp above) — but re-arm both defensively so
      // the wait below always has a wakeup source. Compaction first so a
      // yielding flush chain sees the job it is yielding to.
      MaybeScheduleCompactionLocked();
      MaybeScheduleFlushLocked();
      if (!stalled) {
        stalled = true;
        stall_start = NowSteadyMicros();
        stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      bg_work_done_cv_.wait(l);
      continue;  // re-evaluate: a flush or compaction committed
    }
    s = SwitchMemTableLocked();
    break;
  }
  if (stalled) {
    stats_.RecordStall(NowSteadyMicros() - stall_start);
  }
  LETHE_RETURN_IF_ERROR(s);
  if (now > hold_release_) {
    MaybeScheduleFlushLocked();  // the held memtable's tombstone is due
  }
  if (now > srd_batch_due_) {
    MaybeScheduleSecondaryDeleteBatchLocked();  // its first delete is due
  }
  MaybeScheduleCompactionLocked();
  return Status::OK();
}

Status DBImpl::SwitchMemTableLocked() {
  if (mem_->empty()) {
    return Status::OK();
  }
  ImmMemTable imm;
  imm.mem = mem_;
  imm.wal_number = wal_number_;
  imm.first_seq = mem_first_seq_;
  imm.first_time = mem_first_time_;
  // Fresh WAL for the new memtable. The manifest keeps naming the oldest
  // unflushed WAL; recovery scans the directory for everything newer.
  LETHE_RETURN_IF_ERROR(RotateWalLocked());
  // Sealed only once the rotation succeeded: a failed rotation leaves mem_
  // the active memtable, still taking writes anywhere in the key space.
  mem_->Freeze();
  imm_.push_back(std::move(imm));
  mem_ = std::make_shared<MemTable>();
  PublishMemTablesLocked();
  if (imm_.back().mem.get() == srd_batch_mem_) {
    MaybeScheduleSecondaryDeleteBatchLocked();  // the batch's memtable sealed
  }
  mem_staked_bytes_ = 0;  // fresh memtable; the frozen one counts as imm
  UpdateMemtableReservationLocked();
  if (GroupsFlushes()) {
    RefreshTriggerStateLocked();  // the memtable reserves the L0 it overlaps
  }
  MaybeScheduleFlushLocked();
  return Status::OK();
}

Status DBImpl::DrainLocked(std::unique_lock<std::mutex>& l) {
  if (!barrier_mode_) {
    return Status::OK();
  }
  // The same O(1) trigger check the write path ends with; only a due
  // trigger schedules (and so waits for) a compaction.
  MaybeScheduleCompactionLocked();
  while (!imm_.empty() || bg_jobs_inflight_ > 0) {
    if (!bg_error_.ok()) {
      return bg_error_;  // the error state machine owns recovery
    }
    if (closed_) {
      return Status::InvalidArgument("DB is closed");
    }
    bg_work_done_cv_.wait(l);
  }
  return bg_error_;
}

Status DBImpl::SecondaryRangeDelete(const WriteOptions& options,
                                    uint64_t delete_key_begin,
                                    uint64_t delete_key_end) {
  if (delete_key_begin >= delete_key_end) {
    return Status::InvalidArgument("empty secondary range delete");
  }
  std::unique_lock<std::mutex> l(mu_);
  if (closed_) {
    return Status::InvalidArgument("DB is closed");
  }
  Writer w(nullptr, false);
  JoinWriterQueue(&w, l);
  stats_.secondary_range_deletes.fetch_add(1, std::memory_order_relaxed);

  // WAL the purge *before* applying it: the active memtable's entries live
  // on in the log, so recovery must replay the purge over them or the
  // delete silently un-happens at the next open. Honors the caller's sync
  // request like any other write — an acknowledged delete must not vanish
  // in a torn WAL tail. The same commit protocol as a write group; with the
  // WAL off nothing is logged and the purge takes no sequence.
  WalGroup logged;
  logged.first_seq = versions_->LastSequence() + (wal_ != nullptr ? 1 : 0);
  logged.time = options_.clock->NowMicros();
  WalOp& purge_op = logged.ops.emplace_back();
  purge_op.kind = WalOp::Kind::kSecondaryRangeDelete;
  purge_op.delete_key = delete_key_begin;
  purge_op.delete_key_end = delete_key_end;
  std::string framed;
  AppendWalGroup(logged, &framed);
  // The active memtable is mutable, so buffered entries are purged in place
  // (no tombstones needed). Requires the write token.
  auto purge = [&] {
    stats_.entries_purged_by_srd.fetch_add(
        mem_->PurgeDeleteKeyRange(delete_key_begin, delete_key_end),
        std::memory_order_relaxed);
  };
  Status s = LogApplyPublish(wal_.get(), framed, options.sync,
                             logged.first_seq, purge);
  if (!s.ok()) {
    RecordBackgroundErrorLocked(BackgroundJobKind::kWalWrite, s);
  } else if (!barrier_mode_) {
    // Background mode: the delete is in force at once, for every reader
    // and merge, and the tables purge in one batched page pass later
    // (SecondaryDeleteBatch). Registered under the write token, so no seal
    // slips between the purge above and the batch trigger.
    s = DeferSecondaryDeleteLocked(delete_key_begin, delete_key_end,
                                   logged.first_seq);
    if (!s.ok()) {
      RecordBackgroundErrorLocked(BackgroundJobKind::kSecondaryDelete, s);
    }
    CompleteGroup(&w, &w, s, l);
    return s;
  }

  // Barrier mode: release the token, then run the disk part as a
  // prioritized job. The job drains every pending memtable (flushing on its
  // own worker) and claims the whole tree before scanning, so no pre-call
  // entry escapes the delete and no concurrent merge resurrects one.
  CompleteGroup(&w, &w, s, l);
  LETHE_RETURN_IF_ERROR(s);
  if (!bg_error_.ok()) {
    return bg_error_;
  }
  // Bounded by the delete's own sequence, so a write another thread commits
  // after it survives, as in background mode.
  const SecondaryDeleteSet deletes(
      {{delete_key_begin, delete_key_end, logged.first_seq}});
  s = RunOnWorkerAndWait(
      BackgroundScheduler::Priority::kSecondaryDelete,
      BackgroundJobKind::kSecondaryDelete,
      [this, &deletes](std::unique_lock<std::mutex>& jl) {
        FootprintClaim claim;
        LETHE_RETURN_IF_ERROR(AcquireExclusiveLocked(&claim, jl));
        return ApplySecondaryDeletesLocked(deletes, /*pending=*/false, jl);
      },
      l);
  return s.ok() ? DrainLocked(l) : s;
}

Status DBImpl::DeferSecondaryDeleteLocked(uint64_t lo, uint64_t hi,
                                          SequenceNumber seq) {
  std::vector<SecondaryDeleteRange> ranges;
  if (const auto& pending = versions_->current()->secondary_deletes()) {
    ranges = pending->ranges();
  }
  ranges.push_back({lo, hi, seq});
  // Durable before the call returns: a crash before the batch commits
  // reopens with the set, so the entries stay hidden.
  VersionEdit edit;
  edit.secondary_deletes = SecondaryDeleteSet(std::move(ranges));
  LETHE_RETURN_IF_ERROR(
      versions_->LogAndApply(&edit, OldestUnflushedSeqLocked()));
  srd_flush_through_ =
      imm_.empty() ? std::weak_ptr<MemTable>() : imm_.back().mem;
  ArmSecondaryDeleteBatchLocked();
  return Status::OK();
}

Status DBImpl::PauseWrites() {
  std::unique_lock<std::mutex> l(mu_);
  if (closed_) {
    return Status::InvalidArgument("DB is closed");
  }
  // An exclusive Writer at the queue front holds the write token: leaders
  // never merge past a null batch (BuildBatchGroup stops there), so once
  // this writer reaches the front every earlier write has fully committed
  // and published its sequences, and no later one can start.
  pause_writer_ = std::make_unique<Writer>(nullptr, false);
  JoinWriterQueue(pause_writer_.get(), l);
  return Status::OK();
}

void DBImpl::ResumeWrites() {
  std::unique_lock<std::mutex> l(mu_);
  if (pause_writer_ == nullptr) {
    return;
  }
  CompleteGroup(pause_writer_.get(), pause_writer_.get(), Status::OK(), l);
  pause_writer_.reset();
}

}  // namespace lethe
