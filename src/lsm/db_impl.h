#ifndef LETHE_LSM_DB_IMPL_H_
#define LETHE_LSM_DB_IMPL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/core/options.h"
#include "src/core/statistics.h"
#include "src/format/page_cache.h"
#include "src/lsm/bg_work.h"
#include "src/lsm/compaction.h"
#include "src/lsm/compaction_picker.h"
#include "src/lsm/error_handler.h"
#include "src/lsm/read_path.h"
#include "src/lsm/version_set.h"
#include "src/memtable/memtable.h"
#include "src/memtable/wal.h"
#include "src/memtable/write_batch.h"

namespace lethe {

/// What ShardedDB shares with each shard it opens. A standalone DBImpl takes
/// the empty default and builds its own scheduler and page cache.
struct ShardContext {
  /// The shared worker pool. The DBImpl registers as one owner and, on
  /// close, detaches itself rather than shutting the pool down.
  std::shared_ptr<BackgroundScheduler> scheduler;
  /// The shared page cache (null without a budget); the shard stakes its
  /// write-buffer reservation against it.
  std::shared_ptr<PageCache> page_cache;
  /// First file number the DBImpl may allocate (its manifest, WALs and
  /// tables all number upward from here). Each shard gets a disjoint band
  /// (shard index << 40), so file-number-keyed state in the shared page
  /// cache can never collide across shards. 0 numbers from 1.
  uint64_t file_number_origin = 0;
};

/// The engine proper, one file per seam:
///   db_impl.cc        open/close, scheduling and background jobs, error
///                     handling, maintenance API, read snapshots, stats
///   db_impl_open.cc   recovery: orphan sweep, WAL replay and rotation
///   db_impl_write.cc  writer queue, group commit, stalls, memtable switch
///   db_impl_merge.cc  flush, compaction, partitioned merge, CompactAll
///   read_path.cc      every read: a lock-free ReadPath over a ReadSnapshot
///
/// Threading model — three kinds of participants:
///
///   *Writers* serialize through a leader/follower queue (`writers_`).
///   Being at the front of the queue is the **write token**: the exclusive
///   right to mutate the active memtable and the WAL handle. A leader
///   merges the batches of the writers queued behind it and commits the
///   whole group with one WAL append (group commit), applying to the
///   memtable with `mu_` released — safe because the token, not the mutex,
///   is what guards memtable mutation.
///
///   *Readers* never take `mu_`: they read the sequence bound, then copy
///   the published ReadState {mem, imm..., version} (GetReadSnapshot), and
///   run in ReadPath. Introspection calls load the same state.
///
///   *Background work*: writers only swap full memtables onto `imm_` and
///   enqueue work; a BackgroundScheduler pool of
///   `Options::background_threads` workers runs flushes, compactions, and
///   secondary-delete execution. Multiple merges proceed concurrently when
///   their footprints (input files + output key range per level) are
///   disjoint; a job whose footprint overlaps an in-flight job *defers* —
///   parks without holding a worker — and re-arms when the blocker
///   completes. Heavy merge I/O runs with `mu_` released; version commits
///   (VersionSet::LogAndApply) always happen under `mu_`.
///
///   *Barrier mode* (Options::inline_compactions, the paper's setup): the
///   same machinery on one worker, plus a barrier (DrainLocked) that ends
///   every write group and maintenance call — the caller keeps the write
///   token until no flush or compaction is queued, running, or due. Writes
///   therefore yield to compactions, and a single-threaded workload yields
///   the same I/O trace run to run.
///
/// Locking invariants:
///   - `mu_` guards: the writer queue, mem_/imm_ swaps, wal_ rotation,
///     trigger caches, background bookkeeping, the in-flight job registry,
///     and every LogAndApply and VersionSet::current() call.
///   - Every change to mem_, imm_ or the current version republishes
///     `read_state_` before `mu_` is released (PublishReadStateLocked,
///     LogAndApplyLocked): writers apply into its active memtable, and a
///     deferred secondary range delete hides entries from the next read.
///   - Memtable *content* mutation requires the write token (front of
///     `writers_`), not `mu_`.
///   - A merge registers its JobFootprint in VersionSet *before* releasing
///     `mu_` for I/O and unregisters in the same `mu_` hold as its
///     LogAndApply, so claims and version membership change atomically. No
///     two in-flight jobs ever share an input file or overlap output key
///     ranges within a level. Flushes of disjoint memtables may build at
///     once, but they install oldest-first: a look-ahead that finishes
///     early parks its edit and claim on its imm_ entry (see
///     InstallFlushesLocked).
///   - Exclusive jobs (CompactAll, secondary-delete batches) wait for the
///     registry to drain, then claim the whole tree.
///   - File and run numbers are atomics in VersionSet, allocatable without
///     `mu_`. Sequence numbers are allocated by the write-token holder alone
///     and published (SetLastSequence) once their group is applied.
class DBImpl final : public DB {
 public:
  DBImpl(const Options& options, std::string name, ShardContext shard = {});
  ~DBImpl() override;

  /// Recovers MANIFEST + WAL(s). Must be called once before use.
  Status Init();

  Status Put(const WriteOptions& options, const Slice& key,
             uint64_t delete_key, const Slice& value) override;
  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status RangeDelete(const WriteOptions& options, const Slice& begin_key,
                     const Slice& end_key) override;
  Status SecondaryRangeDelete(const WriteOptions& options,
                              uint64_t delete_key_begin,
                              uint64_t delete_key_end) override;

  // Reads: one ReadSnapshot capture, then one lock-free ReadPath call.
  Status GetWithDeleteKey(const ReadOptions& options, const Slice& key,
                          std::string* value, uint64_t* delete_key) override {
    return read_path().Get(GetReadSnapshot(options.snapshot), key,
                           options.fill_page_cache, value, delete_key);
  }
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) override {
    return read_path().NewIterator(GetReadSnapshot(options.snapshot),
                                   options.fill_page_cache);
  }

  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;

  /// Commit path for optimistic transactions (see src/lsm/txn.h): behaves
  /// like Write, but first validates, while holding the write token, that
  /// no key in `validation_keys` has a committed version newer than
  /// `read_snapshot_seq`. On conflict returns Status::Busy and applies
  /// nothing. On success *commit_seq (may be nullptr) receives the last
  /// sequence of the applied batch; token order makes commit sequences the
  /// serialization order of validated commits.
  Status WriteValidated(const WriteOptions& options, WriteBatch* batch,
                        SequenceNumber read_snapshot_seq,
                        const std::vector<std::string>& validation_keys,
                        SequenceNumber* commit_seq);

  /// Cross-shard snapshot support (see ShardedDB::GetSnapshot): acquires
  /// and holds this DB's write token, so no write can commit — and
  /// LastSequence cannot advance — until ResumeWrites. Every write acked
  /// before PauseWrites returns has published its sequence (token order).
  /// Reads, including GetSnapshot, proceed normally while paused. Not
  /// reentrant; each PauseWrites must be paired with one ResumeWrites.
  Status PauseWrites();
  void ResumeWrites();
  Status Flush() override;
  Status WaitForCompact() override;
  Status CompactUntilQuiescent() override;
  Status CompactAll() override;
  const Statistics& stats() const override { return stats_; }
  std::vector<LevelSnapshot> GetLevelSnapshots() override;
  std::vector<TombstoneAgeSample> GetTombstoneAges() override;
  Status ComputeSpaceAmplification(double* samp) override;
  uint64_t ApproximateEntryCount() const override;

  /// Test hook: the background worker pool.
  BackgroundScheduler* TEST_scheduler() { return bg_.get(); }

  /// Test hook: the background-error state machine.
  ErrorHandler* TEST_error_handler() { return err_.get(); }

  /// Test hook: the published (acknowledged) sequence number — lets tests
  /// assert that failed WAL appends do not advance it.
  SequenceNumber TEST_LastSequence() const { return versions_->LastSequence(); }

  /// Test hook: the page cache, or nullptr when no budget is set.
  PageCache* TEST_page_cache() { return page_cache_.get(); }

  /// Test hook: FADE's seq→time resolution (VersionSet::TimeOfSeq) — lets
  /// tests assert that checkpoint replay keeps the mapping stable for
  /// pinned sequences across a reopen.
  uint64_t TEST_TimeOfSeq(SequenceNumber seq) const {
    return versions_->TimeOfSeq(seq);
  }

  /// Test hook: structural invariants of the current tree — within every
  /// sorted run files are ordered and non-overlapping, leveling keeps at
  /// most one run per level, and every referenced table file exists on the
  /// Env (catches premature deletion by a racing merge). Intended after
  /// WaitForCompact; returns the first violation found.
  Status TEST_VerifyTreeInvariants();

  /// Test hook: the current version's files at `level`, in run order.
  std::vector<FileMeta> TEST_LevelFiles(int level);

  /// Test hook: whether secondary range deletes are pending (hidden but not
  /// yet applied to the tables).
  bool TEST_HasPendingSecondaryDeletes() {
    return GetReadSnapshot().version().secondary_deletes() != nullptr;
  }

 private:
  /// One queued write (or an exclusive-token request when batch == nullptr).
  struct Writer {
    Writer(WriteBatch* b, bool s) : batch(b), sync(s) {}
    WriteBatch* batch;  // nullptr = exclusive op (flush/SRD/compact-all)
    bool sync;
    // Optimistic-transaction commit (WriteValidated), null for plain
    // writes: the same leader path first runs ValidateCommit on these keys
    // under the token. BuildBatchGroup makes such a writer a solo group, so
    // no leader applies a batch whose validation it has not run.
    const std::vector<std::string>* validation_keys = nullptr;
    SequenceNumber read_snapshot_seq = 0;
    SequenceNumber commit_seq = 0;  // out: LastSequence at commit
    bool done = false;
    Status status;
    std::condition_variable cv;
  };

  /// RAII handle on an in-flight registry claim: releasing (destruction or
  /// Release()) unregisters the footprint and re-arms work parked on it, so
  /// no error path can leak a claim. Like every registry operation it must
  /// be constructed and destroyed with mu_ held; the heavy merge I/O in
  /// between runs with mu_ released, which is safe precisely because the
  /// claim is what fences conflicting background work. Default-constructed
  /// = holds nothing.
  class FootprintClaim {
   public:
    FootprintClaim() = default;
    /// Claims `footprint`. The caller must have checked
    /// ConflictsWithInFlight in the same mu_ hold.
    FootprintClaim(DBImpl* db, const JobFootprint& footprint)
        : db_(db), job_id_(db->versions_->RegisterInFlightJob(footprint)) {}
    FootprintClaim(FootprintClaim&& other) noexcept
        : db_(other.db_), job_id_(other.job_id_) {
      other.db_ = nullptr;
    }
    FootprintClaim& operator=(FootprintClaim&& other) noexcept {
      if (this != &other) {
        Release();
        db_ = other.db_;
        job_id_ = other.job_id_;
        other.db_ = nullptr;
      }
      return *this;
    }
    FootprintClaim(const FootprintClaim&) = delete;
    FootprintClaim& operator=(const FootprintClaim&) = delete;
    ~FootprintClaim() { Release(); }

    void Release() {
      if (db_ != nullptr) {
        db_->UnregisterJobLocked(job_id_);
        db_ = nullptr;
      }
    }
    bool held() const { return db_ != nullptr; }

   private:
    DBImpl* db_ = nullptr;
    uint64_t job_id_ = 0;
  };

  /// A memtable frozen by the write path, awaiting background flush,
  /// together with the WAL that covers it, its FADE checkpoint info and its
  /// flush state. Entries stay in imm_ (and readable) until installed. The
  /// sort-key span is the memtable's own (MemTable::Freeze).
  struct ImmMemTable {
    std::shared_ptr<MemTable> mem;
    uint64_t wal_number = 0;
    SequenceNumber first_seq = 0;
    uint64_t first_time = 0;
    // A flush is building this memtable, or installing it.
    bool building = false;
    // A flush took it once: a retry after a failure is never held
    // (HoldForNextSealLocked).
    bool flush_started = false;
    // Built while an older memtable was still pending: the finished edit
    // and its registry claim wait here until every older memtable has
    // installed (InstallFlushesLocked).
    std::optional<VersionEdit> parked_edit;
    FootprintClaim parked_claim;
  };

  // ---- write path -------------------------------------------------------

  /// The one writer protocol behind Write and WriteValidated: join the
  /// queue; as leader gate on health, slow down, build the group, validate
  /// (a validating writer is a solo group), apply, finish, and complete the
  /// group.
  Status WriteImpl(Writer* w);

  /// Conflict check of a validating writer, run by WriteImpl under the
  /// token: Busy when a key's newest committed version — point entry or
  /// covering range tombstone — is newer than w.read_snapshot_seq.
  Status ValidateCommit(const Writer& w, const ReadSnapshot& snap);

  /// Enqueues `w`, blocks until it holds the write token (front of the
  /// queue) or a leader completed it.
  void JoinWriterQueue(Writer* w, std::unique_lock<std::mutex>& l);

  /// Pops the front writers through `last` (marking all but `self` done with
  /// `s`) and wakes the next queue head.
  void CompleteGroup(Writer* self, Writer* last, const Status& s,
                     std::unique_lock<std::mutex>& l);

  /// Collects the contiguous run of batch writers at the queue front into a
  /// group (bounded by byte budget). Returns them; *last is the final
  /// member.
  std::vector<Writer*> BuildBatchGroup(Writer** last);

  /// Applies a commit group: blind-delete filtering, sequence assignment,
  /// one WAL append (+ at most one sync), memtable insert. Runs with mu_
  /// released; the write token is what makes this safe.
  Status ApplyGroup(const std::vector<Writer*>& group,
                    const ReadSnapshot& snap, WalWriter* wal, uint64_t now,
                    bool force_sync);

  /// The one WAL commit protocol (write groups and secondary range
  /// deletes), run under the write token. The caller allocated sequences
  /// up to `last_seq` locally; this appends `framed` (the group's frame,
  /// laid down by AppendWalGroup) as one write (at most one sync), runs
  /// `apply`, then publishes `last_seq`. A failure applies nothing and
  /// burns the sequences only if bytes may have reached the log. A null
  /// `wal` (WAL disabled) just applies and publishes.
  template <typename Apply>
  Status LogApplyPublish(WalWriter* wal, const Slice& framed, bool sync,
                         SequenceNumber last_seq, Apply&& apply);

  /// Post-apply trigger handling, under mu_ with the token held: swaps a
  /// full memtable and enqueues its flush, stalling per the explicit policy
  /// when the pipeline is full, then schedules due compactions.
  Status HandlePostWriteLocked(std::unique_lock<std::mutex>& l);

  /// Everything after a group applied: HandlePostWriteLocked, then the
  /// barrier. Failures go to the error state machine, not to the writers.
  void FinishWriteLocked(std::unique_lock<std::mutex>& l);

  /// Barrier mode's end-of-call barrier: schedules due compactions (the
  /// O(1) trigger check), then waits until imm_ is empty and no job of this
  /// DB is queued or running. Returns early with the background error, or
  /// when the DB closes. No-op in background mode.
  Status DrainLocked(std::unique_lock<std::mutex>& l);

  /// Freezes mem_ onto imm_, starts a fresh WAL, and schedules a flush job.
  Status SwitchMemTableLocked();

  /// Bounded one-shot delay when L0 holds kL0SlowdownRuns runs (background
  /// mode only).
  void MaybeSlowdownLocked(std::unique_lock<std::mutex>& l);

  /// kL0StopRuns clamped so it cannot fire below the tiering saturation
  /// point (where no compaction would ever release the stall). Used by both
  /// the slowdown and the stall check so the two bands stay contiguous.
  int EffectiveL0StopTrigger() const;

  // ---- merges -------------------------------------------------------------
  //
  // A merge claims a JobFootprint in the in-flight registry before
  // releasing the mutex; *deferred is set (with no work done) when the
  // footprint overlaps a job already running.

  /// Flushes `imm`, an entry of imm_ that no job is building (merging with
  /// overlapping first-level files under leveling, unless it cuts at L1
  /// boundaries: then it writes only its buffers, into tiered L0 runs). When
  /// `imm` is the front and flushes group (GroupsFlushes), the flush takes
  /// along every following memtable up to the first that is building or
  /// parked: one merge of the group's memtables (and the L0 files it
  /// merges with) into one VersionEdit. A group of one is the classic
  /// flush. A range-local greedy flush — some L0 file lies wholly outside
  /// the buffers' span — cuts its outputs at a span edge whose edge file
  /// holds at least half a target file outside the span, so that cold part
  /// lands in its own L0 file instead of being rewritten by every later
  /// flush. Heavy I/O runs with `l` released; `imm` stays valid meanwhile
  /// (deque elements do not move, and only installed entries are popped).
  /// The front installs at once (InstallFlushesLocked); a look-ahead whose
  /// older memtables are still pending parks its edit and claim on `imm`
  /// instead.
  Status FlushMemTable(ImmMemTable* imm, std::unique_lock<std::mutex>& l,
                       bool* deferred);

  /// Installs the finished flush of the `count` memtables at the front of
  /// imm_ (`edit`, claimed by `claim`), then every parked successor in
  /// order, all in this mu_ hold: each edit's outputs take their L0 runs
  /// against the version they join (when flushes cut at L1 boundaries),
  /// each LogAndApply points the manifest at
  /// the oldest WAL still carrying unflushed data, and each installed
  /// memtable leaves imm_ and has its WAL removed. A failed install removes
  /// its outputs and leaves its memtables at the front, unbuilt.
  Status InstallFlushesLocked(VersionEdit edit, FootprintClaim claim,
                              size_t count);

  /// The memtable the next flush job should build: the oldest one no job is
  /// building or has parked. Behind a pending older memtable (a look-ahead)
  /// only when its span is disjoint from every older pending one. Null when
  /// there is none, or when the front is held (HoldForNextSealLocked).
  ImmMemTable* NextFlushCandidateLocked();

  /// Whether sealed memtables may share a flush and be held for the next
  /// seal: background mode, max_imm_memtables >= 2 and leveling. A FADE
  /// buffer groups too; its deadline ends a hold
  /// (CompactionPicker::HoldBound).
  bool GroupsFlushes() const;

  /// Whether a flush writes its buffers alone, cut at the L1 file
  /// boundaries inside their span, into tiered L0 runs, and opens the
  /// outputs' readers before install: flushes group and FADE is on
  /// (FlushMemTable, "L1-aligned flush cuts" and "Tiered L0" in
  /// docs/architecture.md).
  bool CutsFlushesAtL1() const;

  /// Whether the flush of `imm`, the only sealed memtable, waits for the
  /// next seal so that one flush takes both (one L0 rewrite, or one L0 run
  /// where flushes cut at L1 boundaries): flushes group, its
  /// span overlaps an L0 file (an in-order load never waits), no flush of
  /// it has started before, no caller waits for imm_ to drain, and its
  /// oldest tombstone (if any) is not yet HoldBound() old.
  bool HoldForNextSealLocked(const ImmMemTable& imm) const;

  Status CompactOnce(const CompactionPick& pick,
                     std::unique_lock<std::mutex>& l, bool* deferred);

  /// Runs one logical merge over `inputs` (plus, for flushes, the frozen
  /// memtables `mems` and their buffered range tombstones `mem_rts`), split
  /// into `boundaries.size() + 1` disjoint key-range partitions (empty
  /// boundaries = the classic unsplit merge, byte-identical to the
  /// pre-subcompaction engine). The calling thread works through the
  /// partition queue itself while sibling partitions are offered to idle
  /// pool workers, so the fan-out can never deadlock on a saturated pool;
  /// a completion barrier joins every partition before returning. On
  /// success the per-partition outputs are appended to `edit` in key order
  /// (one atomic VersionEdit for the whole merge); on any partition
  /// failure the siblings abort cooperatively and every finished output
  /// file of every partition is removed. Called with `l` held; releases it
  /// around the merge I/O.
  Status RunMergePartitioned(
      const std::vector<std::shared_ptr<FileMeta>>& inputs,
      std::vector<std::shared_ptr<MemTable>> mems,
      std::vector<RangeTombstone> mem_rts,
      const std::vector<std::string>& boundaries, const MergeConfig& config,
      VersionEdit* edit, std::unique_lock<std::mutex>& l);

  /// The file-merge tail shared by CompactOnce and CompactAllLocked: byte-
  /// balanced subcompaction boundaries (computed with `l` released), the
  /// partitioned merge, and one LogAndApply. A failure removes every
  /// finished output; a commit reports success to the error handler. The
  /// caller holds the footprint claim.
  Status MergeAndCommitLocked(
      const std::vector<std::shared_ptr<FileMeta>>& inputs,
      const MergeConfig& config, VersionEdit* edit,
      std::unique_lock<std::mutex>& l);

  /// Merges the whole tree into its deepest level (bottommost, so every
  /// unpinned tombstone is persisted) through MergeAndCommitLocked, so it
  /// partitions, cleans up and reports like any merge. Requires the
  /// exclusive claim (AcquireExclusiveLocked).
  Status CompactAllLocked(std::unique_lock<std::mutex>& l);

  // ---- secondary range deletes ------------------------------------------
  //
  // Barrier mode applies each delete to the tables before the call
  // returns. Background mode purges the active memtable in place and then
  // only records the delete in the version's pending set
  // (Version::secondary_deletes), which hides its entries from every read
  // and merge at once; one batched page pass applies the whole set later.

  /// Appends {lo, hi, seq} to the pending set through one LogAndApply (so
  /// it survives a crash) and arms the batch triggers if they are not.
  /// Called under the write token.
  Status DeferSecondaryDeleteLocked(uint64_t lo, uint64_t hi,
                                    SequenceNumber seq);

  /// Arms the batch for the first pending delete: it runs when the active
  /// memtable seals, under FADE also once D_th/2 has passed.
  void ArmSecondaryDeleteBatchLocked();

  /// Queues the batch job unless one is queued or running, nothing is
  /// pending, or the DB is unhealthy or closing. Called by the triggers
  /// above, by every FlushWaiter, on resume, and by a batch that ends after
  /// the next batch's memtable sealed.
  void MaybeScheduleSecondaryDeleteBatchLocked();

  /// The batch job: captures the pending set, claims the whole tree
  /// (flushing first the memtables sealed before its newest delete, so no
  /// unflushed memtable holds an entry the set hides) and applies it.
  void SecondaryDeleteBatch();

  /// Applies `deletes` to every table in one page pass and commits the
  /// result. `pending`: the batch is the front of the version's pending
  /// set, which the same edit drops (always committed, even when no page
  /// changed). Requires the exclusive claim, or a closed DB.
  Status ApplySecondaryDeletesLocked(const SecondaryDeleteSet& deletes,
                                     bool pending,
                                     std::unique_lock<std::mutex>& l);

  // ---- scheduling -----------------------------------------------------------

  /// Keeps the flush chain alive: schedules a flush job when a memtable is
  /// ready to build (NextFlushCandidateLocked) and no queued job is about
  /// to take it, up to background_threads flush jobs. Each job re-arms the
  /// chain once it has claimed its memtable and again when it ends, so an
  /// ascending load builds successive memtables side by side while they
  /// still install oldest-first. With one worker at most one flush runs.
  void MaybeScheduleFlushLocked();

  /// Schedules compaction jobs while triggers are due, up to
  /// background_threads outstanding jobs. Each job picks its own disjoint
  /// work; surplus jobs that find nothing unclaimed no-op.
  void MaybeScheduleCompactionLocked();

  void BackgroundFlush();
  void BackgroundCompaction();

  /// Releases a merge's registry claim and re-arms work that parked on it
  /// (deferred flush chain / deferred compactions), then wakes waiters.
  void UnregisterJobLocked(uint64_t job_id);

  /// Worker-side acquisition for exclusive jobs: waits until the memtables
  /// frozen before the call have installed (flushing the front on this
  /// thread when no job is building it), waits for every in-flight merge
  /// to commit, then claims the whole tree. On success *claim holds
  /// the registration and releases it on destruction.
  Status AcquireExclusiveLocked(FootprintClaim* claim,
                                std::unique_lock<std::mutex>& l) {
    return AcquireExclusiveLocked(
        claim, imm_.empty() ? nullptr : imm_.back().mem, l);
  }

  /// The same, waiting only for `flush_through` and the memtables sealed
  /// before it (none when null).
  Status AcquireExclusiveLocked(FootprintClaim* claim,
                                std::shared_ptr<MemTable> flush_through,
                                std::unique_lock<std::mutex>& l);

  /// Schedules `fn` on the worker at `priority` and blocks until it ran
  /// (mu_ held on entry and return; released while waiting). `fn` receives
  /// the worker's lock and may release it around I/O; a failure status is
  /// also recorded as the background error under `kind`.
  Status RunOnWorkerAndWait(
      BackgroundScheduler::Priority priority, BackgroundJobKind kind,
      const std::function<Status(std::unique_lock<std::mutex>&)>& fn,
      std::unique_lock<std::mutex>& l);

  // ---- background-error handling ------------------------------------------

  /// Records a failed background operation: pins bg_error_ (first error
  /// wins), feeds the error-handler state machine, and wakes stalled
  /// writers. mu_ must be held.
  void RecordBackgroundErrorLocked(BackgroundJobKind kind, const Status& s);

  /// Write-path gate while bg_error_ is set. kDegraded does NOT block here:
  /// writes keep landing while recovery retries the failed background job
  /// (the bounded stall lives at the imm-cap/L0 gate in
  /// HandlePostWriteLocked). Only kReadOnly/kFatal reject, with an IOError
  /// wrapping the cause.
  Status WaitForWritableLocked(std::unique_lock<std::mutex>& l);

  /// Recovery probe (error-handler callback, runs off every lock): a small
  /// create + append + sync + remove in the DB directory.
  Status ProbeStorage();

  /// Resume after a successful probe (error-handler callback): clears
  /// bg_error_, re-stakes the memtable reservation, re-arms the flush chain
  /// and compaction scheduling, and wakes stalled writers.
  void ResumeFromBackgroundError();

  /// Runs the orphan sweep a resume deferred because jobs were still in
  /// flight, once the registry has actually drained and the DB is healthy.
  /// Called from every background-job completion path. mu_ must be held.
  void MaybeRunPendingOrphanSweepLocked();

  /// Blocks until imm_ is drained and no secondary-delete batch is queued
  /// or running (or a background error is set).
  Status WaitForFlushLocked(std::unique_lock<std::mutex>& l);

  /// A caller that waits for imm_ to drain (Flush, WaitForCompact): while
  /// one is registered no memtable is held for the next seal, so a held
  /// memtable never blocks it. Constructed and destroyed with mu_ held;
  /// registering re-arms the flush chain and runs the pending secondary
  /// deletes.
  class FlushWaiter {
   public:
    explicit FlushWaiter(DBImpl* db) : db_(db) {
      db_->flush_waiters_++;
      db_->MaybeScheduleFlushLocked();
      db_->MaybeScheduleSecondaryDeleteBatchLocked();
    }
    ~FlushWaiter() { db_->flush_waiters_--; }
    FlushWaiter(const FlushWaiter&) = delete;
    FlushWaiter& operator=(const FlushWaiter&) = delete;

   private:
    DBImpl* db_;
  };

  // ---- shared helpers ---------------------------------------------------

  void RefreshTriggerStateLocked();

  /// Re-stakes the write buffers' share of the unified memory budget
  /// (Options::memory_budget_bytes): the active memtable (via
  /// mem_staked_bytes_, measured only by write-token holders — the arena
  /// is token-guarded, so the background flush path must not size mem_
  /// directly) plus every pending immutable memtable (frozen, safe to
  /// measure under mu_). Raising the stake evicts cached pages, so pages
  /// and write buffers stay jointly bounded by the one budget. No-op
  /// without a budget. Called at every point the set or size of memtables
  /// changes: post-write, memtable switch, flush commit, and WAL replay.
  void UpdateMemtableReservationLocked();

  /// Recovery-time garbage collection: deletes table files not referenced
  /// by the recovered version (outputs of a merge that crashed before its
  /// manifest install) and manifests superseded by the current one, bumping
  /// the file-number counter past every orphan so fresh allocations cannot
  /// collide.
  Status RemoveOrphanFilesLocked();

  /// Closes the current WAL (if any) and opens a fresh one as wal_number_.
  /// No-op when the WAL is disabled.
  Status RotateWalLocked();

  Status ReplayWalsLocked();

  /// Commits `edit` (VersionSet::LogAndApply) and republishes the read
  /// state: the one way DBImpl installs a version. Checkpoint pruning keeps
  /// what the oldest frozen memtable's flush must still resolve.
  Status LogAndApplyLocked(VersionEdit* edit);

  /// Publishes {mem_, imm_, current version} as the state readers load.
  void PublishReadStateLocked();

  /// The one ReadSnapshot capture, with or without mu_: the bound is
  /// `pinned`'s sequence, or LastSequence when null, read before the
  /// published state is loaded.
  ReadSnapshot GetReadSnapshot(const Snapshot* pinned = nullptr) const;

  /// The lock-free read side, over the table cache (set up by Init).
  ReadPath read_path() { return ReadPath(versions_->table_cache(), &stats_); }

  /// Captures the pinned snapshots (sequences ascending, with their
  /// creation times), the pending secondary range deletes and the clock
  /// into a merge's config under mu_, when the merge is scheduled.
  void PinSnapshotsLocked(MergeConfig* config) const {
    config->snapshots = snapshots_.Seqs();
    config->snapshot_times = snapshots_.Times();
    config->secondary_deletes = versions_->current()->secondary_deletes();
    config->now = options_.clock->NowMicros();
  }

  /// Oldest pinned snapshot (the defaults when none). Fed to the compaction
  /// picker so the delete-driven trigger skips files whose deletes are
  /// still snapshot-pinned (unreclaimable).
  OldestSnapshot OldestSnapshotLocked() const {
    if (snapshots_.empty()) {
      return {};
    }
    return {snapshots_.Oldest(), snapshots_.OldestTime()};
  }

  Options options_;  // resolved (env/clock non-null)
  std::string dbname_;
  ShardContext shard_;
  Statistics stats_;

  // Inline mode (Options::inline_compactions): every write group and
  // maintenance call ends with DrainLocked.
  bool barrier_mode_ = false;

  // Must outlive versions_ (the table cache hands it to every open reader)
  // and memtable_reservation_ (which returns its stake on destruction —
  // member order below page_cache_ guarantees it). shared_ptr: under
  // ShardedDB one cache is co-owned by every shard and the facade.
  std::shared_ptr<PageCache> page_cache_;
  CacheReservation memtable_reservation_;  // write buffers' budget stake
  // Active memtable's contribution to the stake. Guarded by mu_ for
  // reads; written only while also holding the write token (or
  // single-threaded: replay, memtable switch).
  size_t mem_staked_bytes_ = 0;
  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<CompactionPicker> picker_;
  // Owned alone (classic) or co-owned by every shard
  // (ShardContext::scheduler); each DBImpl is one scheduler *owner* and
  // detaches itself — not the pool — at close. Both are set by the
  // constructor and never null.
  std::shared_ptr<BackgroundScheduler> bg_;
  BackgroundScheduler::OwnerId bg_owner_ = BackgroundScheduler::kDefaultOwner;
  std::unique_ptr<ErrorHandler> err_;

  mutable std::mutex mu_;
  std::deque<Writer*> writers_;
  // Live PauseWrites token holder (an exclusive Writer parked at the queue
  // front), released by ResumeWrites. Guarded by mu_.
  std::unique_ptr<Writer> pause_writer_;
  SnapshotList snapshots_;  // live snapshot pins, oldest first (mu_)
  std::shared_ptr<MemTable> mem_;
  std::deque<ImmMemTable> imm_;  // oldest first
  // mem_, imm_'s memtables and the current version as readers load them:
  // stored under mu_ (PublishReadStateLocked), loaded without it.
  mutable std::atomic<std::shared_ptr<const ReadState>> read_state_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t wal_number_ = 0;
  SequenceNumber mem_first_seq_ = 0;
  uint64_t mem_first_time_ = 0;

  // Background bookkeeping (guarded by mu_).
  std::condition_variable bg_work_done_cv_;  // flush/compaction committed
  int flush_jobs_ = 0;              // flush jobs queued or running
  int flush_jobs_unstarted_ = 0;    // of those, queued and not yet running
  int flush_waiters_ = 0;           // live FlushWaiters
  bool flush_deferred_ = false;     // flush chain parked on a conflict
  int compaction_jobs_ = 0;         // compaction jobs queued or running
  bool compaction_deferred_ = false;  // a pick conflicted; retry on commit
  // Set when a compaction job found nothing to pick (everything claimed or
  // triggers stale); blocks further trigger-based scheduling until a merge
  // commits. Without it, the hot write path would re-schedule no-op jobs
  // into every free pool slot while one long merge holds all the claims.
  // Only set while jobs are in flight, so a clearing commit always comes.
  bool compaction_backoff_ = false;
  // Exclusive jobs (CompactAll, secondary-delete execution) waiting for the
  // registry to drain. While one waits, no new compaction jobs are
  // scheduled — otherwise back-to-back merges under write load could keep
  // the registry non-empty and starve the exclusive job indefinitely.
  int exclusive_waiters_ = 0;
  int bg_jobs_inflight_ = 0;        // all queued/running jobs, every class
  // A resume-time orphan sweep was skipped because jobs were in flight;
  // the next completion that empties the registry runs it.
  bool orphan_sweep_pending_ = false;
  Status bg_error_;
  bool closed_ = false;

  // O(1) per-write trigger pre-checks, refreshed on version installs (and
  // on seals while flushes group: a seal can start a hold, hold_release_).
  uint64_t earliest_ttl_expiry_ = UINT64_MAX;
  uint64_t buffer_ttl_ = UINT64_MAX;  // FADE's d_0 for the memtable
  // When the lone sealed memtable's hold ends by its oldest tombstone's
  // age (UINT64_MAX: no such deadline); past it a write re-arms the flush
  // chain.
  uint64_t hold_release_ = UINT64_MAX;
  bool saturation_pending_ = false;
  // The pending secondary deletes' batch triggers: the memtable that was
  // active at the first of them (compared by address only; null when not
  // armed) and, under FADE, when that delete is D_th/2 old, past which a
  // write schedules the batch.
  const MemTable* srd_batch_mem_ = nullptr;
  uint64_t srd_batch_due_ = UINT64_MAX;
  // The newest memtable sealed before the newest pending delete: the batch
  // flushes it and every older one first. Later memtables hold no entry a
  // pending delete hides (each delete purged the active memtable in place),
  // so a memtable the batch's own seal froze stays held for its group.
  std::weak_ptr<MemTable> srd_flush_through_;
  bool srd_batch_scheduled_ = false;  // the batch job is queued or running
  // L0 specifically is over capacity. The flush chain consults this to
  // yield one round to a scheduled compaction: a leveled flush greedily
  // rewrites the whole L0 run, so under saturated ingest back-to-back
  // flushes would re-claim L0 the instant each one commits and the
  // compaction's pick would never find it unclaimed — L0 then snowballs
  // and every flush rewrites the growing run. See MaybeScheduleFlushLocked.
  bool l0_saturated_ = false;
  int l0_runs_ = 0;
};

}  // namespace lethe

#endif  // LETHE_LSM_DB_IMPL_H_
