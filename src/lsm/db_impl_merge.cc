#include <algorithm>
#include <set>

#include "src/lsm/db_impl.h"
#include "src/lsm/db_impl_internal.h"
#include "src/lsm/merging_iterator.h"
#include "src/lsm/secondary_delete.h"

namespace lethe {

namespace {

// Safety valve for pathological configs: merges never target a deeper
// level than kMaxLevels - 1.
constexpr int kMaxLevels = 16;

// Range-local flush cuts. A leveled flush rewrites every L0 file its
// buffer's span [smallest, largest] overlaps, and an edge file is rewritten
// whole even when most of it lies outside the span. When the flush is
// range-local (some L0 file lies wholly outside the span) and an edge file
// holds at least half a target file outside it (estimated from metadata:
// no I/O under mu_), the flush's outputs are cut at that span edge. The
// cold part becomes its own L0 file, which later flushes over a similar
// span never touch. A uniform or random-key buffer spans every L0 file, so
// it never cuts and its outputs stay byte-identical.
std::vector<std::string> SpanEdgeCuts(
    const Version& version,
    const std::vector<std::shared_ptr<FileMeta>>& overlapping,
    const std::string& smallest, const std::string& largest,
    uint64_t target_file_bytes) {
  std::vector<std::string> cuts;
  if (overlapping.empty()) {
    return cuts;  // also covers a version with no levels yet
  }
  size_t l0_files = 0;
  for (const SortedRun& run : version.levels()[0]) {
    l0_files += run.files.size();
  }
  if (l0_files == overlapping.size()) {
    return cuts;  // not range-local
  }
  // Estimated bytes of `file` in [begin, end).
  auto bytes_in = [](const FileMeta& file, const std::string& begin,
                     const std::string& end) {
    return static_cast<double>(file.file_size) *
           RangeOverlapFraction(Slice(file.smallest_key),
                                Slice(file.largest_key), Slice(begin),
                                Slice(end));
  };
  // Leveling keeps L0 one sorted run, so the overlap is in key order.
  const FileMeta& first = *overlapping.front();
  const FileMeta& last = *overlapping.back();
  const double half_target = static_cast<double>(target_file_bytes) / 2;
  if (bytes_in(first, first.smallest_key, smallest) >= half_target) {
    cuts.push_back(smallest);
  }
  std::string after_span = largest;
  after_span.push_back('\0');  // the least key above largest
  if (bytes_in(last, after_span, last.largest_key) >= half_target) {
    cuts.push_back(std::move(after_span));
  }
  return cuts;
}

}  // namespace

// ---- merges ---------------------------------------------------------------

Status DBImpl::FlushMemTable(ImmMemTable* imm,
                             std::unique_lock<std::mutex>& l,
                             bool* deferred) {
  if (imm->mem->empty()) {
    return Status::OK();
  }
  std::shared_ptr<const Version> version = versions_->current();
  std::shared_ptr<MemTable> mem = imm->mem;  // pinned across the unlock

  MergeConfig config;
  config.is_flush = true;
  config.output_level = 0;
  PinSnapshotsLocked(&config);

  // Sort-key span of the buffered data (entries + range tombstones), taken
  // when the memtable froze.
  const std::string& smallest = imm->smallest;
  const std::string& largest = imm->largest;
  const bool has_span = imm->has_span;
  std::vector<RangeTombstone> rts = mem->range_tombstones()->ToVector();

  std::vector<std::shared_ptr<FileMeta>> overlapping;
  if (options_.compaction_style == CompactionStyle::kLeveling) {
    // Greedy leveled flush: merge the buffer with the overlapping part of
    // the first disk level (§2: flushed runs are greedily sort-merged with
    // the run of Level 1).
    overlapping = version->OverlappingFiles(0, Slice(smallest), Slice(largest));
    if (has_span) {
      config.cut_keys = SpanEdgeCuts(*version, overlapping, smallest, largest,
                                      options_.target_file_bytes);
    }
  }

  // Claim the flush footprint — the merged-in L0 files plus the output
  // span (memtable span widened over the merged files) — before any work,
  // deferring if a running merge holds part of it. The RAII guard releases
  // the claim on every exit path below.
  JobFootprint footprint;
  footprint.output_level = 0;
  footprint.CoverOutput(Slice(smallest), Slice(largest));
  for (const auto& file : overlapping) {
    footprint.AddInput(*file);
  }
  if (versions_->ConflictsWithInFlight(footprint)) {
    *deferred = true;
    return Status::OK();
  }
  FootprintClaim claim(this, footprint);
  imm->building = true;
  if (imm != &imm_.front()) {
    stats_.flushes_pipelined.fetch_add(1, std::memory_order_relaxed);
  }
  // The next memtable may build alongside this one (a no-op with one
  // worker: this job fills the only flush slot).
  MaybeScheduleFlushLocked();

  VersionEdit edit;
  versions_->AddSeqTimeCheckpoint(imm->first_seq, imm->first_time, &edit);

  // Bottommost is judged on the current version only. That stays sound for
  // a look-ahead: no older pending memtable holds any of its keys
  // (NextFlushCandidateLocked), so nothing older than its tombstones can
  // still reach the version below them.
  if (options_.compaction_style == CompactionStyle::kLeveling) {
    for (const auto& file : overlapping) {
      edit.removed_files.push_back({0, file->file_number});
      config.input_bytes += file->file_size;
    }
    config.output_run_id = 0;
    config.bottommost = version->IsBottommost(0);
  } else {
    config.output_run_id = versions_->NewRunId();
    config.bottommost = version->DeepestNonEmptyLevel() < 0;
  }

  // Subcompactions: a leveled flush greedily rewrites the overlapping part
  // of L0, which under a saturated buffer is the single hottest merge in
  // the engine — split it like any other merge. The memtable participates
  // in the byte-balance model as one more pseudo-file spanning the
  // buffered data.
  std::vector<std::string> boundaries;
  if (options_.max_subcompactions > 1 && !overlapping.empty() && has_span) {
    auto mem_span = std::make_shared<FileMeta>();
    mem_span->smallest_key = smallest;
    mem_span->largest_key = largest;
    mem_span->file_size = mem->ApproximateMemoryUsage();
    std::vector<std::shared_ptr<FileMeta>> span_inputs = overlapping;
    span_inputs.push_back(std::move(mem_span));
    // Fence sampling opens the inputs and may read their metadata; that
    // must not happen under mu_. The claim above already fences
    // conflicting work, and the inputs are immutable snapshots, so the
    // mutex can drop for the duration.
    l.unlock();
    boundaries = picker_->ComputeSubcompactionBoundaries(
        span_inputs, options_.max_subcompactions);
    l.lock();
  }

  // The heavy merge runs without the mutex: inputs are immutable (a frozen
  // memtable + on-disk files) and output file numbers come from atomics.
  // The registered footprint guarantees no conflicting version mutation
  // between the snapshot above and the commit below.
  Status s = RunMergePartitioned(overlapping, mem, std::move(rts), boundaries,
                                 config, &edit, l);
  if (!s.ok()) {
    imm->building = false;
    claim.Release();
    RemoveFailedMergeOutputs(options_.env, dbname_, edit);
    return s;
  }
  if (imm != &imm_.front()) {
    // An older memtable has not installed yet; its install takes this one
    // along.
    imm->building = false;
    imm->parked_edit = std::move(edit);
    imm->parked_claim = std::move(claim);
    return Status::OK();
  }
  return InstallFlushesLocked(std::move(edit), std::move(claim));
}

Status DBImpl::InstallFlushesLocked(VersionEdit edit, FootprintClaim claim) {
  int installed = 0;
  Status s;
  while (true) {
    ImmMemTable& front = imm_.front();
    // The manifest must keep naming the oldest WAL still carrying unflushed
    // data: the next pending memtable's, or the active one.
    edit.wal_number = imm_.size() > 1 ? imm_[1].wal_number : wal_number_;
    s = versions_->LogAndApply(&edit);
    claim.Release();
    if (!s.ok()) {
      front.building = false;
      RemoveFailedMergeOutputs(options_.env, dbname_, edit);
      break;
    }
    const uint64_t flushed_wal = front.wal_number;
    imm_.pop_front();
    if (options_.enable_wal) {
      // Everything the flushed WAL covered is durable in the new version.
      // The unlink stays inside this mu_ hold: done after the job releases
      // mu_, it delays the next flush's L0 claim, and FADE's TTL pick then
      // grabs L0 for a whole-L1 rewrite (ycsb-deletes write_amp +20-55%).
      options_.env->RemoveFile(WalFileName(dbname_, flushed_wal)).ok();
    }
    installed++;
    if (imm_.empty() || !imm_.front().parked_edit) {
      break;
    }
    ImmMemTable& next = imm_.front();
    next.building = true;  // installing: no job may take it meanwhile
    edit = std::move(*next.parked_edit);
    next.parked_edit.reset();
    claim = std::move(next.parked_claim);
  }
  if (installed > 0) {
    UpdateMemtableReservationLocked();
    RefreshTriggerStateLocked();
  }
  if (s.ok()) {
    err_->ReportSuccess();  // a committed flush refills the retry budget
  }
  return s;
}

void DBImpl::UpdateMemtableReservationLocked() {
  if (!memtable_reservation_.active()) {
    return;
  }
  size_t total = mem_staked_bytes_;
  for (const ImmMemTable& imm : imm_) {
    total += imm.mem->ApproximateMemoryUsage();
  }
  memtable_reservation_.Set(total);
  stats_.cache_reservation_bytes.store(total, std::memory_order_relaxed);
}

void DBImpl::RefreshTriggerStateLocked() {
  std::shared_ptr<const Version> version = versions_->current();
  earliest_ttl_expiry_ =
      picker_->EarliestTtlExpiry(*version, OldestSnapshotSeqLocked());
  buffer_ttl_ = picker_->BufferTtl(*version);
  l0_runs_ = version->num_levels() > 0 ? version->LevelRunCount(0) : 0;
  saturation_pending_ = false;
  l0_saturated_ = false;
  for (int level = 0; level < version->num_levels(); level++) {
    if (options_.compaction_style == CompactionStyle::kTiering) {
      if (version->LevelRunCount(level) >=
          static_cast<int>(options_.size_ratio)) {
        saturation_pending_ = true;
        l0_saturated_ = level == 0;
        return;
      }
    } else if (version->LevelBytes(level) >
               picker_->LevelCapacityBytes(level)) {
      saturation_pending_ = true;
      l0_saturated_ = level == 0;
      return;
    }
  }
}

Status DBImpl::CompactOnce(const CompactionPick& pick,
                           std::unique_lock<std::mutex>& l, bool* deferred) {
  std::shared_ptr<const Version> version = versions_->current();
  const int deepest = version->DeepestNonEmptyLevel();

  MergeConfig config;
  config.trigger = pick.trigger;
  config.input_files = pick.inputs.size();
  PinSnapshotsLocked(&config);

  int target;
  if (options_.compaction_style == CompactionStyle::kTiering) {
    target = pick.level + 1;
    config.bottommost = deepest <= pick.level;
    config.output_run_id = versions_->NewRunId();
  } else {
    // A TTL-expired file already at the bottom is rewritten in place to
    // purge its tombstones; everything else flows one level down.
    if (pick.level == deepest &&
        pick.trigger == CompactionPick::Trigger::kTtlExpiry) {
      target = pick.level;
    } else {
      target = pick.level + 1;
    }
    target = std::min(target, kMaxLevels - 1);
    config.bottommost = deepest <= target;
    config.output_run_id = 0;
  }
  config.output_level = target;

  VersionEdit edit;
  std::vector<std::shared_ptr<FileMeta>> all_inputs = pick.inputs;
  std::set<uint64_t> input_numbers;
  for (const auto& file : pick.inputs) {
    edit.removed_files.push_back({pick.level, file->file_number});
    input_numbers.insert(file->file_number);
  }

  bool trivial_move_possible = false;
  if (options_.compaction_style == CompactionStyle::kLeveling &&
      target != pick.level) {
    // Pull in the overlapping slice of the target level.
    std::string smallest = pick.inputs.front()->smallest_key;
    std::string largest = pick.inputs.front()->largest_key;
    for (const auto& file : pick.inputs) {
      if (Slice(file->smallest_key).compare(Slice(smallest)) < 0) {
        smallest = file->smallest_key;
      }
      if (Slice(file->largest_key).compare(Slice(largest)) > 0) {
        largest = file->largest_key;
      }
    }
    auto overlapping =
        version->OverlappingFiles(target, Slice(smallest), Slice(largest));
    if (overlapping.empty()) {
      const FileMeta& file = *pick.inputs.front();
      trivial_move_possible =
          !(config.bottommost && file.HasTombstones());
    }
    for (const auto& file : overlapping) {
      if (input_numbers.insert(file->file_number).second) {
        all_inputs.push_back(file);
        edit.removed_files.push_back({target, file->file_number});
      }
    }
  }

  // Claim the merge footprint — every input file plus the input key span
  // at the target level (outputs never escape it) — and defer if it
  // overlaps a job already in flight. The trivial move commits below
  // without ever releasing the mutex, so it needs the conflict check but
  // no registration. The RAII guard releases the claim on every exit path.
  JobFootprint footprint;
  footprint.output_level = target;
  for (const auto& file : all_inputs) {
    footprint.AddInput(*file);
  }
  if (versions_->ConflictsWithInFlight(footprint)) {
    *deferred = true;
    return Status::OK();
  }

  if (trivial_move_possible) {
    // Trivial move: metadata-only promotion (no I/O). The tombstone age
    // keeps counting from insertion, preserving the Dth bound.
    FileMeta moved = *pick.inputs.front();
    moved.run_id = 0;
    edit.added_files.emplace_back(target, std::move(moved));
    LETHE_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
    stats_.trivial_moves.fetch_add(1, std::memory_order_relaxed);
    err_->ReportSuccess();  // the manifest committed: storage is working
    return Status::OK();
  }
  FootprintClaim claim(this, footprint);

  for (const auto& file : all_inputs) {
    config.input_bytes += file->file_size;
  }
  return MergeAndCommitLocked(all_inputs, config, &edit, l);
}

Status DBImpl::MergeAndCommitLocked(
    const std::vector<std::shared_ptr<FileMeta>>& inputs,
    const MergeConfig& config, VersionEdit* edit,
    std::unique_lock<std::mutex>& l) {
  // Subcompactions: split the merge into byte-balanced key-range
  // partitions so idle pool workers can share one saturated level's merge.
  // Empty boundaries (the default, single-file inputs, or a degenerate key
  // span) keep the classic single-pass merge.
  std::vector<std::string> boundaries;
  if (options_.max_subcompactions > 1) {
    // Off-mutex: fence sampling opens the inputs and may read metadata.
    // The caller's claim fences conflicting work while the lock is down.
    l.unlock();
    boundaries = picker_->ComputeSubcompactionBoundaries(
        inputs, options_.max_subcompactions);
    l.lock();
  }
  Status s = RunMergePartitioned(inputs, /*mem=*/nullptr, {}, boundaries,
                                 config, edit, l);
  if (s.ok()) {
    s = versions_->LogAndApply(edit);
  }
  if (!s.ok()) {
    RemoveFailedMergeOutputs(options_.env, dbname_, *edit);
    return s;
  }
  err_->ReportSuccess();  // a committed merge refills the retry budget
  return Status::OK();
}

Status DBImpl::RunMergePartitioned(
    const std::vector<std::shared_ptr<FileMeta>>& inputs,
    std::shared_ptr<MemTable> mem, std::vector<RangeTombstone> mem_rts,
    const std::vector<std::string>& boundaries, const MergeConfig& config,
    VersionEdit* edit, std::unique_lock<std::mutex>& l) {
  const size_t num_parts = boundaries.size() + 1;

  // Fan-out state shared by this thread and any pool helpers. Heap-owned
  // via shared_ptr: a helper that only gets scheduled after the barrier
  // has already released (every partition claimed by faster threads) must
  // still find live state when it finally runs and finds nothing to do.
  struct FanOut {
    std::mutex mu;
    std::condition_variable cv;
    size_t next = 0;  // next unclaimed partition
    int active = 0;   // partitions currently executing
    Status status;    // first failure wins
    std::atomic<bool> abort{false};
    std::vector<VersionEdit> edits;  // per-partition outputs
    std::vector<std::shared_ptr<FileMeta>> inputs;
    std::shared_ptr<MemTable> mem;  // flush only; pins the frozen buffer
    std::vector<RangeTombstone> mem_rts;
    std::vector<std::string> boundaries;
    MergeConfig config;
  };
  auto state = std::make_shared<FanOut>();
  state->edits.resize(num_parts);
  state->inputs = inputs;
  state->mem = std::move(mem);
  state->mem_rts = std::move(mem_rts);
  state->boundaries = boundaries;
  state->config = config;

  // One partition's merge: fresh iterators over the shared sources (a
  // frozen memtable for flushes; table readers are shared through the
  // table cache, so re-opening is cheap), range tombstones clipped to the
  // window, outputs into the partition's own edit. Touches no DB state
  // that needs mu_: file numbers and tombstone-time resolution go through
  // VersionSet's own synchronization.
  auto run_partition = [this](FanOut* fan, size_t index) -> Status {
    MergeConfig part_config = fan->config;
    if (index > 0) {
      part_config.partition_begin = fan->boundaries[index - 1];
    }
    if (index < fan->boundaries.size()) {
      part_config.partition_end = fan->boundaries[index];
    }
    part_config.count_merge_stats = index == 0;
    part_config.abort = &fan->abort;
    // Source order (memtable first, then files) and tombstone order
    // (buffered first, then per-file) mirror the unsplit paths exactly, so
    // a single-partition run stays byte-identical to them.
    std::vector<std::unique_ptr<InternalIterator>> iters;
    std::vector<RangeTombstone> rts = fan->mem_rts;
    if (fan->mem != nullptr) {
      iters.push_back(fan->mem->NewIterator());
    }
    LETHE_RETURN_IF_ERROR(
        CollectFileInputs(versions_.get(), fan->inputs, &iters, &rts));
    if (part_config.count_merge_stats) {
      // Pre-clip total: a bottommost merge persists each input tombstone
      // once, however many partition pieces it gets clipped into. Pieces a
      // live snapshot pins (seq above the oldest pin) are carried forward,
      // not persisted, so they do not count.
      const SequenceNumber oldest_pin = part_config.snapshots.empty()
                                            ? kMaxSequenceNumber
                                            : part_config.snapshots.front();
      uint64_t droppable = 0;
      for (const RangeTombstone& rt : rts) {
        if (rt.seq <= oldest_pin) {
          droppable++;
        }
      }
      part_config.dropped_range_tombstones = droppable;
    }
    const std::vector<RangeTombstone> clipped = ClipRangeTombstones(
        rts, part_config.partition_begin, part_config.partition_end);
    auto merged = NewMergingIterator(std::move(iters));
    MergeExecutor executor(options_, versions_.get(), &stats_);
    return executor.Run(merged.get(), clipped, part_config,
                        &fan->edits[index]);
  };

  // Drain loop shared by this thread and the helpers: claim the next
  // partition, run it, repeat until the queue is empty or a sibling
  // failed. The calling thread always participates, so the merge completes
  // even when every other worker is busy or the pool is gone — helpers
  // only add bandwidth. This is what makes the fan-out deadlock-free: no
  // thread ever waits for a partition it could be running itself.
  auto drain = [this, run_partition](const std::shared_ptr<FanOut>& fan) {
    std::unique_lock<std::mutex> fl(fan->mu);
    while (fan->status.ok() && fan->next < fan->edits.size()) {
      const size_t index = fan->next++;
      fan->active++;
      fl.unlock();
      Status s = run_partition(fan.get(), index);
      fl.lock();
      fan->active--;
      if (!s.ok() && fan->status.ok()) {
        fan->status = s;
        // Siblings poll this mid-merge and bail out instead of finishing
        // outputs the barrier below is going to delete anyway.
        fan->abort.store(true, std::memory_order_relaxed);
      }
    }
    fan->cv.notify_all();
  };

  l.unlock();
  if (num_parts > 1) {
    const auto priority =
        config.is_flush
            ? BackgroundScheduler::Priority::kFlush
            : (config.trigger == CompactionPick::Trigger::kTtlExpiry
                   ? BackgroundScheduler::Priority::kDeleteDrivenCompaction
                   : BackgroundScheduler::Priority::kSpaceDrivenCompaction);
    for (size_t h = 1; h < num_parts; h++) {
      // Best effort: a rejected job (shutdown) just means this thread
      // merges that partition itself.
      bg_->Schedule(priority, [drain, state] { drain(state); }, bg_owner_);
    }
  }
  drain(state);
  {
    // Completion barrier: every claimed partition has finished (successes
    // and aborts alike) before the combined edit is assembled.
    std::unique_lock<std::mutex> fl(state->mu);
    state->cv.wait(fl, [&] {
      return state->active == 0 && (!state->status.ok() ||
                                    state->next >= state->edits.size());
    });
  }
  l.lock();

  if (!state->status.ok()) {
    // No partition's edit was installed; remove every finished output of
    // every partition. Outputs a crashed process leaves behind instead are
    // reaped by recovery's orphan sweep.
    for (const VersionEdit& part : state->edits) {
      RemoveFailedMergeOutputs(options_.env, dbname_, part);
    }
    return state->status;
  }

  // Assemble the single atomic VersionEdit: partitions are disjoint,
  // ascending key windows, so appending their outputs in partition order
  // keeps the level's files key-ordered.
  uint64_t total_bytes = 0, max_partition_bytes = 0;
  for (VersionEdit& part : state->edits) {
    uint64_t part_bytes = 0;
    for (auto& [level, meta] : part.added_files) {
      part_bytes += meta.file_size;
      edit->added_files.emplace_back(level, std::move(meta));
    }
    total_bytes += part_bytes;
    max_partition_bytes = std::max(max_partition_bytes, part_bytes);
  }
  if (num_parts > 1) {
    stats_.partitioned_compactions.fetch_add(1, std::memory_order_relaxed);
    stats_.subcompactions_dispatched.fetch_add(num_parts,
                                               std::memory_order_relaxed);
    if (total_bytes > 0) {
      stats_.RecordSubcompactionSkew(max_partition_bytes * num_parts * 1000 /
                                     total_bytes);
    }
  }
  return Status::OK();
}

Status DBImpl::CompactAllLocked(std::unique_lock<std::mutex>& l) {
  std::shared_ptr<const Version> version = versions_->current();
  int deepest = version->DeepestNonEmptyLevel();
  if (deepest < 0) {
    return Status::OK();
  }

  MergeConfig config;
  config.trigger = CompactionPick::Trigger::kSaturation;
  config.output_level = deepest;
  config.bottommost = true;
  PinSnapshotsLocked(&config);
  config.output_run_id =
      options_.compaction_style == CompactionStyle::kTiering
          ? versions_->NewRunId()
          : 0;

  VersionEdit edit;
  std::vector<std::shared_ptr<FileMeta>> all_inputs;
  for (const auto& [level, file] : version->AllFiles()) {
    all_inputs.push_back(file);
    edit.removed_files.push_back({level, file->file_number});
    config.input_bytes += file->file_size;
  }
  config.input_files = all_inputs.size();
  LETHE_RETURN_IF_ERROR(MergeAndCommitLocked(all_inputs, config, &edit, l));
  RefreshTriggerStateLocked();
  return Status::OK();
}

Status DBImpl::SecondaryRangeDeleteLocked(uint64_t lo, uint64_t hi,
                                          std::unique_lock<std::mutex>& l) {
  std::shared_ptr<const Version> version = versions_->current();
  VersionEdit edit;
  // Page reads and in-place boundary rewrites run without the mutex;
  // foreground readers are fenced by FileMeta::page_generation.
  l.unlock();
  Status s = ExecuteSecondaryRangeDelete(options_, versions_.get(), &stats_,
                                         *version, lo, hi, &edit);
  l.lock();
  LETHE_RETURN_IF_ERROR(s);
  if (!edit.removed_files.empty() || !edit.added_files.empty()) {
    LETHE_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
    RefreshTriggerStateLocked();
    MaybeScheduleCompactionLocked();
  }
  return Status::OK();
}

}  // namespace lethe
