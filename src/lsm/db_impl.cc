#include "src/lsm/db_impl.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <unordered_map>

#include "src/lsm/merging_iterator.h"
#include "src/lsm/secondary_delete.h"
#include "src/lsm/sharded_db.h"

namespace lethe {

namespace {

/// Lazy concatenation over the files of one sorted run: at most one SSTable
/// iterator is open at a time.
class RunIterator final : public InternalIterator {
 public:
  RunIterator(TableCache* cache, std::vector<std::shared_ptr<FileMeta>> files,
              bool fill_cache)
      : cache_(cache), files_(std::move(files)), fill_cache_(fill_cache) {}

  bool Valid() const override {
    return status_.ok() && file_iter_ != nullptr && file_iter_->Valid();
  }

  void SeekToFirst() override {
    file_index_ = -1;
    file_iter_.reset();
    AdvanceFile(/*seek_target=*/nullptr);
  }

  void Seek(const Slice& target) override {
    // First file with largest_key >= target.
    int lo = 0, hi = static_cast<int>(files_.size()) - 1,
        result = static_cast<int>(files_.size());
    while (lo <= hi) {
      int mid = lo + (hi - lo) / 2;
      if (Slice(files_[mid]->largest_key).compare(target) >= 0) {
        result = mid;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    file_index_ = result - 1;
    file_iter_.reset();
    AdvanceFile(&target);
  }

  void Next() override {
    file_iter_->Next();
    if (!file_iter_->Valid() && file_iter_->status().ok()) {
      AdvanceFile(nullptr);
    }
  }

  const ParsedEntry& entry() const override { return file_iter_->entry(); }

  Status status() const override {
    if (!status_.ok()) {
      return status_;
    }
    return file_iter_ != nullptr ? file_iter_->status() : Status::OK();
  }

 private:
  void AdvanceFile(const Slice* seek_target) {
    while (true) {
      file_index_++;
      if (file_index_ >= static_cast<int>(files_.size())) {
        file_iter_.reset();
        return;
      }
      std::shared_ptr<SSTableReader> table;
      Status s = cache_->GetTable(*files_[file_index_], &table);
      if (!s.ok()) {
        status_ = s;
        file_iter_.reset();
        return;
      }
      table_ = table;  // keep reader alive
      file_iter_ =
          table->NewIterator(files_[file_index_].get(), fill_cache_);
      if (seek_target != nullptr) {
        file_iter_->Seek(*seek_target);
        seek_target = nullptr;  // later files start from their beginning
      } else {
        file_iter_->SeekToFirst();
      }
      if (file_iter_->Valid() || !file_iter_->status().ok()) {
        return;
      }
      // Fully-dropped or tombstone-only file: move on.
    }
  }

  TableCache* cache_;
  std::vector<std::shared_ptr<FileMeta>> files_;
  bool fill_cache_;
  int file_index_ = -1;
  std::shared_ptr<SSTableReader> table_;
  std::unique_ptr<InternalIterator> file_iter_;
  Status status_;
};

/// User-facing iterator: filters superseded versions, tombstones, and
/// range-tombstone-covered entries out of the merged internal stream.
class DBIter final : public Iterator {
 public:
  /// `setup_status`, when not OK, poisons the iterator: the tombstone set
  /// could not be assembled completely (a table or its metadata failed to
  /// load), and iterating anyway could resurrect range-deleted keys.
  /// `bound` pins the scan to a point in time: entries (and range
  /// tombstones) with seq > bound are invisible, so writes committed after
  /// creation can never leak into an open scan.
  /// The collected tombstones of every source become one fragmented index,
  /// so each skipped entry costs one O(log F) cover probe.
  DBIter(std::vector<std::shared_ptr<MemTable>> pinned_mems,
         std::shared_ptr<const Version> version,
         std::unique_ptr<InternalIterator> internal,
         const std::vector<RangeTombstone>& rts, SequenceNumber bound,
         Statistics* stats, Status setup_status)
      : pinned_mems_(std::move(pinned_mems)),
        version_(std::move(version)),
        internal_(std::move(internal)),
        rts_(rts),
        bound_(bound),
        stats_(stats),
        setup_status_(std::move(setup_status)) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    if (!setup_status_.ok()) {
      return;
    }
    stats_->range_lookups.fetch_add(1, std::memory_order_relaxed);
    internal_->SeekToFirst();
    last_key_.clear();
    has_last_key_ = false;
    FindNextLiveEntry();
  }

  void Seek(const Slice& target) override {
    if (!setup_status_.ok()) {
      return;
    }
    stats_->range_lookups.fetch_add(1, std::memory_order_relaxed);
    internal_->Seek(target);
    last_key_.clear();
    has_last_key_ = false;
    FindNextLiveEntry();
  }

  void Next() override {
    internal_->Next();
    FindNextLiveEntry();
  }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }
  uint64_t delete_key() const override { return delete_key_; }
  Status status() const override {
    return setup_status_.ok() ? internal_->status() : setup_status_;
  }

 private:
  void FindNextLiveEntry() {
    valid_ = false;
    while (internal_->Valid()) {
      const ParsedEntry& entry = internal_->entry();
      if (entry.seq > bound_) {
        internal_->Next();  // committed after this scan's snapshot
        continue;
      }
      if (has_last_key_ && entry.user_key == Slice(last_key_)) {
        internal_->Next();  // older version of an already-decided key
        continue;
      }
      last_key_ = entry.user_key.ToString();
      has_last_key_ = true;
      if (entry.IsTombstone() || RtCovers(entry.user_key, entry.seq)) {
        internal_->Next();  // deleted key: skip all its versions
        continue;
      }
      key_ = last_key_;
      value_ = entry.value.ToString();
      delete_key_ = entry.delete_key;
      valid_ = true;
      return;
    }
  }

  bool RtCovers(const Slice& user_key, SequenceNumber seq) {
    stats_->rt_cover_probes.fetch_add(1, std::memory_order_relaxed);
    return rts_.Covers(user_key, seq, bound_);
  }

  std::vector<std::shared_ptr<MemTable>> pinned_mems_;  // pins mem + imms
  std::shared_ptr<const Version> version_;              // pins file set
  std::unique_ptr<InternalIterator> internal_;
  FragmentedRangeTombstoneList rts_;
  SequenceNumber bound_;
  Statistics* stats_;
  Status setup_status_;

  bool valid_ = false;
  std::string last_key_;
  bool has_last_key_ = false;
  std::string key_;
  std::string value_;
  uint64_t delete_key_ = 0;
};

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

// Safety valve for pathological configs: merges never target a deeper
// level than kMaxLevels - 1.
constexpr int kMaxLevels = 16;

uint64_t NowSteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-effort removal of a failed merge's finished outputs — the edit was
/// never installed, so nothing references them. Partially written outputs
/// (not yet in the edit) are reaped by recovery's orphan sweep instead.
void RemoveFailedMergeOutputs(Env* env, const std::string& dbname,
                              const VersionEdit& edit) {
  for (const auto& [level, meta] : edit.added_files) {
    env->RemoveFile(TableFileName(dbname, meta.file_number)).ok();
  }
}

/// Calls `fn(file)` for every table that may hold `key`, newest source
/// first: levels top-down, runs newest first, and within a run the file
/// whose fences contain the key (plus any successor sharing that boundary
/// key). Stops as soon as `fn` returns true and reports whether it did.
/// The one candidate-file iteration behind every point probe.
template <typename Fn>
bool ForEachCandidateFile(const Version& version, const Slice& key, Fn&& fn) {
  for (int level = 0; level < version.num_levels(); level++) {
    const auto& runs = version.levels()[level];
    for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
      const int idx = run->FindFile(key);
      if (idx < 0) {
        continue;
      }
      for (size_t i = idx; i < run->files.size() &&
                           Slice(run->files[i]->smallest_key).compare(key) <= 0;
           i++) {
        if (fn(run->files[i])) {
          return true;
        }
      }
    }
  }
  return false;
}

// WAL record kinds 1-3 mirror the WriteBatch op kinds, so the write path logs
// an op's kind and replay applies a record's kind by value.
static_assert(static_cast<int>(WalRecord::Kind::kPut) ==
                  static_cast<int>(WriteBatch::OpKind::kPut) &&
              static_cast<int>(WalRecord::Kind::kDelete) ==
                  static_cast<int>(WriteBatch::OpKind::kDelete) &&
              static_cast<int>(WalRecord::Kind::kRangeDelete) ==
                  static_cast<int>(WriteBatch::OpKind::kRangeDelete));

/// The one op-kind → memtable mutation, shared by the write path and WAL
/// replay. Requires the write token (or single-threaded recovery). Returns
/// true when a point write appended at the memtable's tail.
bool ApplyToMemTable(MemTable* mem, WriteBatch::OpKind kind,
                     SequenceNumber seq, uint64_t time, const Slice& key,
                     const Slice& end_key, uint64_t delete_key,
                     const Slice& value) {
  switch (kind) {
    case WriteBatch::OpKind::kPut:
      return mem->Add(seq, ValueType::kValue, key, delete_key, value, time);
    case WriteBatch::OpKind::kDelete:
      return mem->Add(seq, ValueType::kTombstone, key, delete_key, Slice(),
                      time);
    case WriteBatch::OpKind::kRangeDelete: {
      RangeTombstone rt;
      rt.begin_key = key.ToString();
      rt.end_key = end_key.ToString();
      rt.seq = seq;
      rt.time = time;
      mem->AddRangeTombstone(rt);
      break;
    }
  }
  return false;
}

/// Sort-key span of a memtable's live entries and its range tombstones.
/// Returns false, leaving the outputs untouched, when it buffers neither.
bool BufferSpan(const MemTable& mem, std::string* smallest,
                std::string* largest) {
  bool has_span = mem.KeySpan(smallest, largest);
  auto widen = [&](const RangeTombstone& rt) {
    if (!has_span || Slice(rt.begin_key).compare(Slice(*smallest)) < 0) {
      *smallest = rt.begin_key;
    }
    if (!has_span || Slice(rt.end_key).compare(Slice(*largest)) > 0) {
      *largest = rt.end_key;
    }
    has_span = true;
  };
  const std::shared_ptr<const BufferedRangeTombstones> rts =
      mem.range_tombstones();
  for (const RtChunk* c = rts->sealed.get(); c != nullptr; c = c->prev.get()) {
    for (const RangeTombstone& rt : c->list) {
      widen(rt);
    }
  }
  for (const RangeTombstone& rt : rts->active) {
    widen(rt);
  }
  return has_span;
}

}  // namespace

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
        RemoveFailedMergeOutputs(options_.env, dbname_, *imm.parked_edit);
        imm.parked_edit.reset();
        imm.parked_claim.Release();
      }
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

Status DBImpl::Init() {
  // One budget number: memory_budget_bytes sizes the block cache and, via
  // the reservation below, also accounts the write buffers against it;
  // page_cache_bytes alone is the legacy data-page-only configuration.
  const uint64_t cache_capacity = options_.memory_budget_bytes > 0
                                      ? options_.memory_budget_bytes
                                      : options_.page_cache_bytes;
  if (shard_.block_cache != nullptr) {
    // ShardedDB: every shard stakes reservations against the one facade-
    // owned cache, so a single budget bounds the whole sharded engine.
    page_cache_ = shard_.block_cache;
    if (options_.memory_budget_bytes > 0) {
      memtable_reservation_ = CacheReservation(page_cache_->cache());
    }
  } else if (cache_capacity > 0) {
    page_cache_ = std::make_shared<PageCache>(
        cache_capacity, PageCache::kDefaultShardBits, &stats_);
    if (options_.memory_budget_bytes > 0) {
      memtable_reservation_ = CacheReservation(page_cache_->cache());
    }
  }
  versions_ = std::make_unique<VersionSet>(options_, dbname_,
                                           page_cache_.get(), &stats_,
                                           shard_.file_number_origin);
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());
  LETHE_RETURN_IF_ERROR(versions_->Recover());
  mem_ = std::make_shared<MemTable>();
  // Inline mode is background mode plus a barrier: the same scheduler (one
  // worker, see Options::WithDefaults) runs every flush and compaction, and
  // each write or maintenance call waits for it to go quiet (DrainLocked).
  barrier_mode_ = options_.inline_compactions;

  std::lock_guard<std::mutex> lock(mu_);
  LETHE_RETURN_IF_ERROR(RemoveOrphanFilesLocked());
  if (options_.enable_wal) {
    LETHE_RETURN_IF_ERROR(ReplayWalsLocked());
  }
  // Replay refills the memtable without passing the write path; stake its
  // bytes against the budget before the first user write (single-threaded
  // here, so sizing mem_ directly is safe).
  mem_staked_bytes_ = mem_->ApproximateMemoryUsage();
  UpdateMemtableReservationLocked();
  RefreshTriggerStateLocked();
  return Status::OK();
}

Status DBImpl::RemoveOrphanFilesLocked() {
  // A crash between a merge's output writes and its manifest install leaves
  // table files no version references; a crash after recovery leaves the
  // previous MANIFEST behind. Neither is reachable (the manifest is the
  // source of truth), so both are garbage — but their numbers may exceed
  // the persisted file-number counter, so the counter must move past them
  // before this DB allocates fresh names.
  std::vector<std::string> children;
  if (!options_.env->GetChildren(dbname_, &children).ok()) {
    return Status::OK();  // list-less env: nothing to sweep
  }
  std::set<uint64_t> live;
  for (const auto& [level, file] : versions_->current()->AllFiles()) {
    live.insert(file->file_number);
  }
  // Empty at Init; populated when the resume path re-runs this sweep on a
  // live DB, where retired-but-pinned files are not garbage.
  for (uint64_t number : versions_->GraveyardFiles()) {
    live.insert(number);
  }
  // After a manifest fallback the recovered snapshot is older than the tree
  // on disk: "unreferenced" tables may hold acknowledged data the damaged
  // manifest referenced. The Init-time sweep quarantines them (DB::Repair
  // can readopt a .bad file once renamed back) instead of deleting; later
  // resume sweeps only ever see genuinely aborted outputs.
  const bool quarantine =
      versions_->recovered_via_fallback() && !fallback_sweep_done_;
  fallback_sweep_done_ = true;
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (!ParseFileName(child, &type, &number) || type == FileType::kWal) {
      continue;  // WAL numbers are ReplayWalsLocked's to account for
    }
    versions_->EnsureFileNumberPast(number);
    if (type == FileType::kManifest) {
      if (number != versions_->manifest_number()) {
        options_.env->RemoveFile(ManifestFileName(dbname_, number)).ok();
      }
    } else if (live.count(number) == 0) {
      const std::string fname = TableFileName(dbname_, number);
      if (quarantine) {
        options_.env->RenameFile(fname, fname + ".bad").ok();
      } else {
        options_.env->RemoveFile(fname).ok();
      }
    }
  }
  return Status::OK();
}

Status DBImpl::ReplayWalsLocked() {
  // The manifest names the oldest WAL still needed; a crash can leave
  // several live WALs behind (one per unflushed memtable plus the active
  // one), so recovery scans the directory and replays every log with
  // number >= the manifest's, in number (= age) order.
  const uint64_t min_wal = versions_->wal_number();
  std::vector<uint64_t> to_replay;
  std::vector<uint64_t> obsolete;
  // Without a listing recovery cannot know which WALs exist, and the fresh
  // WAL below could take the number of one it never saw: fail, and let a
  // retry of Open list again.
  std::vector<std::string> children;
  LETHE_RETURN_IF_ERROR(options_.env->GetChildren(dbname_, &children));
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (!ParseFileName(child, &type, &number) || type != FileType::kWal) {
      continue;
    }
    if (min_wal != 0 && number >= min_wal) {
      to_replay.push_back(number);
    } else {
      obsolete.push_back(number);
    }
  }
  std::sort(to_replay.begin(), to_replay.end());
  // Crash-surviving WAL numbers may exceed the manifest's file-number
  // counter (background-mode swaps allocate them without a manifest write).
  // Bump the counter so the fresh WAL/table numbers below cannot collide
  // with a file this loop is about to replay and delete.
  for (uint64_t number : to_replay) {
    versions_->EnsureFileNumberPast(number);
  }
  for (uint64_t number : obsolete) {
    versions_->EnsureFileNumberPast(number);
  }

  // A torn tail — the append a crash cut short — ends the newest log;
  // everything acknowledged before it is intact. Any other damage fails
  // Open: skipping a record could drop a tombstone and resurrect a deleted
  // key, so salvage is the operator's explicit DB::Repair.
  std::vector<WalRecord> replayed;
  for (size_t i = 0; i < to_replay.size(); i++) {
    const std::string fname = WalFileName(dbname_, to_replay[i]);
    std::string contents;
    LETHE_RETURN_IF_ERROR(ReadFileToString(options_.env, fname, &contents));
    RecordLogScanner scanner{Slice(contents)};
    Slice payload;
    RecordLogScanner::Result result;
    while ((result = scanner.Next(&payload)) ==
           RecordLogScanner::Result::kRecord) {
      WalRecord record;
      if (!DecodeWalRecord(payload, &record)) {
        result = RecordLogScanner::Result::kCorrupt;
        break;
      }
      replayed.push_back(std::move(record));
    }
    const bool newest = i + 1 == to_replay.size();
    if (result == RecordLogScanner::Result::kCorrupt ||
        (result == RecordLogScanner::Result::kTornTail && !newest)) {
      return Status::Corruption("WAL damaged before its end: " + fname +
                                "; run DB::Repair to salvage its intact "
                                "records");
    }
  }

  // Re-apply into the fresh memtable, tracking checkpoint info.
  for (const WalRecord& record : replayed) {
    if (record.kind == WalRecord::Kind::kSecondaryRangeDelete) {
      // Re-apply the in-place purge at its original position in the
      // timeline: it covers exactly the entries replayed before it.
      mem_->PurgeDeleteKeyRange(record.delete_key, record.delete_key_end);
    } else {
      if (mem_->empty()) {
        mem_first_seq_ = record.seq;
        mem_first_time_ = record.time;
      }
      ApplyToMemTable(mem_.get(), static_cast<WriteBatch::OpKind>(record.kind),
                      record.seq, record.time, record.key, record.end_key,
                      record.delete_key, record.value);
    }
    if (record.seq > versions_->LastSequence()) {
      versions_->SetLastSequence(record.seq);
    }
  }

  // Start a fresh log containing the replayed records, then retire the old
  // ones, so a second crash before the next flush still recovers everything.
  LETHE_RETURN_IF_ERROR(RotateWalLocked());
  VersionEdit edit;
  edit.wal_number = wal_number_;
  for (const WalRecord& record : replayed) {
    LETHE_RETURN_IF_ERROR(wal_->AddRecord(record));
  }
  LETHE_RETURN_IF_ERROR(versions_->LogAndApply(&edit));
  for (uint64_t number : to_replay) {
    options_.env->RemoveFile(WalFileName(dbname_, number)).ok();
  }
  for (uint64_t number : obsolete) {
    options_.env->RemoveFile(WalFileName(dbname_, number)).ok();
  }
  return Status::OK();
}

Status DBImpl::RotateWalLocked() {
  if (!options_.enable_wal) {
    return Status::OK();
  }
  const uint64_t number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> file;
  LETHE_RETURN_IF_ERROR(
      options_.env->NewWritableFile(WalFileName(dbname_, number), &file));
  if (wal_ != nullptr) {
    wal_->Close().ok();
  }
  wal_ = std::make_unique<WalWriter>(std::move(file));
  wal_number_ = number;
  return Status::OK();
}

DBImpl::ReadSnapshot DBImpl::GetReadSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return GetReadSnapshotLocked();
}

DBImpl::ReadSnapshot DBImpl::GetReadSnapshotLocked() const {
  ReadSnapshot snap;
  snap.mem = mem_;
  snap.imm.reserve(imm_.size());
  for (const ImmMemTable& imm : imm_) {
    snap.imm.push_back(imm.mem);
  }
  snap.version = versions_->current();
  return snap;
}

bool DBImpl::KeyMayExist(const ReadSnapshot& snap, const Slice& key) {
  ParsedEntry entry;
  if (snap.mem->Get(key, &entry)) {
    // A live value means a tombstone is useful; an existing tombstone means
    // the new delete would be blind.
    return !entry.IsTombstone();
  }
  for (auto it = snap.imm.rbegin(); it != snap.imm.rend(); ++it) {
    if ((*it)->Get(key, &entry)) {
      return !entry.IsTombstone();
    }
  }
  // Filter-only probe per candidate table; a table that fails to open is
  // conservatively assumed to hold the key.
  return ForEachCandidateFile(
      *snap.version, key, [&](const std::shared_ptr<FileMeta>& file) {
        std::shared_ptr<SSTableReader> table;
        return !versions_->table_cache()->GetTable(*file, &table).ok() ||
               table->KeyMayExist(key, file.get(), &stats_);
      });
}

Status DBImpl::FindNewestVersion(const ReadSnapshot& snap, const Slice& key,
                                 SequenceNumber bound, bool fill_cache,
                                 NewestVersion* out) {
  auto probe_memtable = [&](const MemTable& mem) {
    out->cover_seq =
        std::max(out->cover_seq, mem.MaxRangeTombstoneCoverSeq(key, bound));
    ParsedEntry entry;
    if (!mem.Get(key, &entry, bound)) {
      return false;
    }
    out->found = true;
    out->entry.type = entry.type;
    out->entry.seq = entry.seq;
    out->entry.delete_key = entry.delete_key;
    out->entry.value = entry.value;  // aliases the pinned memtable's arena
    return true;
  };
  if (probe_memtable(*snap.mem)) {
    return Status::OK();
  }
  for (auto it = snap.imm.rbegin(); it != snap.imm.rend(); ++it) {
    if (probe_memtable(**it)) {
      return Status::OK();
    }
  }
  Status s;
  ForEachCandidateFile(
      *snap.version, key, [&](const std::shared_ptr<FileMeta>& file) {
        std::shared_ptr<SSTableReader> table;
        s = versions_->table_cache()->GetTable(*file, &table);
        // Accumulate this file's range-tombstone coverage before deciding.
        // The FileMeta count gates the index fetch, so rt-free files cost
        // no metadata access at all on this hot path.
        if (s.ok() && file->num_range_tombstones > 0) {
          FragmentedRtHandle frt;
          s = table->GetFragmentedRangeTombstones(&stats_, &frt);
          if (s.ok()) {
            stats_.rt_cover_probes.fetch_add(1, std::memory_order_relaxed);
            out->cover_seq =
                std::max(out->cover_seq, frt->MaxCoverSeq(key, bound));
          }
        }
        if (s.ok()) {
          s = table->Get(key, file.get(), &stats_, &out->found, &out->entry,
                         fill_cache, bound);
        }
        return !s.ok() || out->found;
      });
  return s;
}

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
  struct PendingOp {
    WriteBatch::Op op;
    SequenceNumber seq;
    uint64_t delete_key;
  };
  std::vector<PendingOp> pending;
  std::string framed;  // the group's WAL bytes, each op encoded once
  size_t total_ops = 0;
  size_t total_bytes = 0;
  for (const Writer* writer : group) {
    total_ops += writer->batch->Count();
    total_bytes += writer->batch->ApproximateBytes();
  }
  pending.reserve(total_ops);
  if (wal != nullptr) {
    // Frame, fixed fields and length prefixes add ~40 bytes per op to its
    // keys and value, so the buffer rarely regrows.
    framed.reserve(total_bytes + 48 * total_ops);
  }

  // Pass 1: blind-delete filtering, statistics, sequence assignment, WAL
  // encoding. `group_live` tracks the liveness outcome of keys written
  // earlier in this group, so a Delete after a Put of the same key
  // is judged against the batch, not the stale snapshot. It is only
  // maintained when the filter is on — the default write path stays free of
  // per-op map inserts.
  const bool track_liveness = options_.filter_blind_deletes;
  std::unordered_map<std::string, bool> group_live;
  // Sequences are allocated locally and published by LogApplyPublish once
  // the WAL accepts the group. Only the token holder allocates, so this
  // unsynchronized read-modify-write of LastSequence is safe.
  SequenceNumber next_seq = versions_->LastSequence();
  for (const Writer* writer : group) {
    for (const WriteBatch::Op op : writer->batch->ops()) {
      uint64_t delete_key = op.delete_key;
      switch (op.kind) {
        case WriteBatch::OpKind::kPut:
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
            const bool may_exist =
                it != group_live.end() ? it->second : KeyMayExist(snap, op.key);
            if (!may_exist) {
              stats_.blind_deletes_avoided.fetch_add(
                  1, std::memory_order_relaxed);
              continue;  // skip: no sequence, no WAL record, no tombstone
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
      // Only the token holder allocates sequences, so filtered deletes
      // consume none.
      const SequenceNumber seq = ++next_seq;
      if (pending.empty() && snap.mem->empty()) {
        mem_first_seq_ = seq;  // token-guarded, like all memtable state
        mem_first_time_ = now;
      }
      pending.push_back({op, seq, delete_key});
      if (wal != nullptr) {
        WalRecordView record;
        record.kind = static_cast<WalRecord::Kind>(op.kind);
        record.seq = seq;
        record.time = now;
        record.key = op.key;
        record.end_key = op.end_key;
        record.delete_key = delete_key;
        record.value = op.value;
        AppendWalRecord(record, &framed);
      }
    }
  }
  if (pending.empty()) {
    return Status::OK();
  }

  // Pass 2: one physical WAL append (and at most one sync) for the whole
  // group — the group-commit amortization — then pass 3: apply to the
  // memtable in order. Every writer in the group fails with a WAL error
  // (CompleteGroup propagates it to all members).
  uint64_t tail_inserts = 0;
  LETHE_RETURN_IF_ERROR(LogApplyPublish(
      wal, framed, force_sync, next_seq, [&] {
        for (const PendingOp& p : pending) {
          const WriteBatch::Op& op = p.op;
          tail_inserts +=
              ApplyToMemTable(snap.mem.get(), op.kind, p.seq, now, op.key,
                              op.end_key, p.delete_key, op.value);
        }
      }));
  stats_.memtable_tail_inserts.fetch_add(tail_inserts,
                                         std::memory_order_relaxed);
  stats_.group_commit_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.group_commit_entries.fetch_add(pending.size(),
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
    LETHE_RETURN_IF_ERROR(FindNewestVersion(snap, key, kMaxSequenceNumber,
                                            /*fill_cache=*/false, &newest));
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
  imm.has_span = BufferSpan(*mem_, &imm.smallest, &imm.largest);
  // Fresh WAL for the new memtable. The manifest keeps naming the oldest
  // unflushed WAL; recovery scans the directory for everything newer.
  LETHE_RETURN_IF_ERROR(RotateWalLocked());
  imm_.push_back(std::move(imm));
  mem_ = std::make_shared<MemTable>();
  mem_staked_bytes_ = 0;  // fresh memtable; the frozen one counts as imm
  UpdateMemtableReservationLocked();
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
    return;  // every pending memtable is building, or the next overlaps one
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
  auto overlaps = [](const ImmMemTable& a, const ImmMemTable& b) {
    return !a.has_span || !b.has_span ||
           (Slice(a.smallest).compare(Slice(b.largest)) <= 0 &&
            Slice(b.smallest).compare(Slice(a.largest)) <= 0);
  };
  for (auto it = imm_.begin(); it != imm_.end(); ++it) {
    if (it->building || it->parked_edit) {
      continue;
    }
    // A look-ahead installs after every older memtable, and shares no key
    // with one, so the order its keys reach the version in is unchanged.
    for (auto older = imm_.begin(); older != it; ++older) {
      if (overlaps(*older, *it)) {
        return nullptr;
      }
    }
    return &*it;
  }
  return nullptr;
}

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
  config.snapshots = SnapshotSeqsLocked();

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
  config.snapshots = SnapshotSeqsLocked();

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
    LETHE_RETURN_IF_ERROR(CollectFileInputs(versions_.get(), fan->inputs,
                                            &iters, &rts, nullptr));
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
  config.snapshots = SnapshotSeqsLocked();
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

void DBImpl::BackgroundCompaction() {
  std::unique_lock<std::mutex> l(mu_);
  bool deferred = false;
  if (!closed_ && bg_error_.ok()) {
    std::shared_ptr<const Version> version = versions_->current();
    CompactionPick pick =
        picker_->Pick(*version, options_.clock->NowMicros(),
                      &versions_->InFlightInputFiles(),
                      OldestSnapshotSeqLocked());
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
                                      std::unique_lock<std::mutex>& l) {
  // Announce intent first: MaybeScheduleCompactionLocked stops launching
  // new compaction jobs while an exclusive job waits, so under sustained
  // write load the registry actually drains instead of starving us.
  exclusive_waiters_++;
  // Only the memtables already frozen when we got here must reach disk
  // (pre-call entries in the *active* memtable were handled under the
  // write token). Draining newer ones too would livelock against
  // sustained ingest — writers can freeze memtables as fast as one worker
  // flushes them. Memtables install oldest-first, so the pre-call ones are
  // all on disk once the newest of them has left imm_.
  const std::shared_ptr<MemTable> newest_pre_call =
      imm_.empty() ? nullptr : imm_.back().mem;
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
  bg_work_done_cv_.notify_all();
}

Status DBImpl::WaitForFlushLocked(std::unique_lock<std::mutex>& l) {
  while (!imm_.empty()) {
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
  Status s = bg_error_.ok() ? SwitchMemTableLocked() : bg_error_;
  if (s.ok()) {
    s = DrainLocked(l);  // barrier mode: the flush and what it triggers
  }
  CompleteGroup(&w, &w, s, l);  // release the token before waiting
  return s.ok() ? WaitForFlushLocked(l) : s;
}

Status DBImpl::WaitForCompact() {
  std::unique_lock<std::mutex> l(mu_);
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
    if (!busy) {
      RefreshTriggerStateLocked();
      std::shared_ptr<const Version> version = versions_->current();
      if (!picker_->Pick(*version, options_.clock->NowMicros(), nullptr,
                         OldestSnapshotSeqLocked())
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
  WalRecordView record;
  record.kind = WalRecord::Kind::kSecondaryRangeDelete;
  record.seq = versions_->LastSequence() + (wal_ != nullptr ? 1 : 0);
  record.time = options_.clock->NowMicros();
  record.delete_key = delete_key_begin;
  record.delete_key_end = delete_key_end;
  std::string framed;
  AppendWalRecord(record, &framed);
  // The active memtable is mutable, so buffered entries are purged in place
  // (no tombstones needed). Requires the write token.
  auto purge = [&] {
    stats_.entries_purged_by_srd.fetch_add(
        mem_->PurgeDeleteKeyRange(delete_key_begin, delete_key_end),
        std::memory_order_relaxed);
  };
  Status s = LogApplyPublish(wal_.get(), framed, options.sync, record.seq,
                             purge);
  if (!s.ok()) {
    RecordBackgroundErrorLocked(BackgroundJobKind::kWalWrite, s);
  }

  // Release the token, then run the disk part as a prioritized job. The
  // job drains every pending memtable (flushing on its own worker) and
  // claims the whole tree before scanning, so no pre-call entry escapes the
  // delete and no concurrent merge resurrects one.
  CompleteGroup(&w, &w, s, l);
  LETHE_RETURN_IF_ERROR(s);
  if (!bg_error_.ok()) {
    return bg_error_;
  }
  s = RunOnWorkerAndWait(
      BackgroundScheduler::Priority::kSecondaryDelete,
      BackgroundJobKind::kSecondaryDelete,
      [this, delete_key_begin,
       delete_key_end](std::unique_lock<std::mutex>& jl) {
        FootprintClaim claim;
        LETHE_RETURN_IF_ERROR(AcquireExclusiveLocked(&claim, jl));
        return SecondaryRangeDeleteLocked(delete_key_begin, delete_key_end,
                                          jl);
      },
      l);
  return s.ok() ? DrainLocked(l) : s;
}

// ---- reads ----------------------------------------------------------------

Status DBImpl::GetWithDeleteKey(const ReadOptions& options, const Slice& key,
                                std::string* value, uint64_t* delete_key) {
  ReadSnapshot snap = GetReadSnapshot();
  stats_.point_lookups.fetch_add(1, std::memory_order_relaxed);

  // Snapshot reads bound visibility: versions and tombstones committed
  // after the pinned sequence do not exist for this lookup.
  const SequenceNumber bound = options.snapshot != nullptr
                                   ? options.snapshot->sequence()
                                   : kMaxSequenceNumber;

  NewestVersion newest;
  LETHE_RETURN_IF_ERROR(FindNewestVersion(snap, key, bound,
                                          options.fill_page_cache, &newest));
  if (!newest.Live()) {
    return Status::NotFound(key);
  }
  // The value aliases the memtable arena or the (possibly cached) decoded
  // page; this assign is the only copy on the whole lookup path.
  value->assign(newest.entry.value.data(), newest.entry.value.size());
  *delete_key = newest.entry.delete_key;
  return Status::OK();
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  uint64_t delete_key;
  return GetWithDeleteKey(options, key, value, &delete_key);
}

const Snapshot* DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  // LastSequence is published only after its group is fully applied
  // (ApplyGroup pass 3), so the pinned view never splits a batch.
  return snapshots_.New(versions_->LastSequence());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  snapshots_.Delete(snapshot);
  // Entries retained only for this snapshot become droppable at the next
  // merge that sees them; no eager rewrite is triggered (mirrors how
  // graveyard files wait for the next sweep).
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

std::unique_ptr<Iterator> DBImpl::NewIterator(const ReadOptions& options) {
  // The sequence bound and the source pointers must be captured in one mu_
  // hold: LastSequence is published only after a group is fully applied, so
  // every entry at or below the bound is present in these sources, and the
  // scan observes exactly the state as of creation (or of the snapshot).
  ReadSnapshot snap;
  SequenceNumber bound;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = GetReadSnapshotLocked();
    bound = options.snapshot != nullptr ? options.snapshot->sequence()
                                        : versions_->LastSequence();
  }
  Status setup_status;

  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(snap.mem->NewIterator());

  std::vector<RangeTombstone> rts;
  snap.mem->range_tombstones()->AppendTo(&rts);

  std::vector<std::shared_ptr<MemTable>> pinned;
  pinned.push_back(snap.mem);
  for (const auto& imm : snap.imm) {
    children.push_back(imm->NewIterator());
    imm->range_tombstones()->AppendTo(&rts);
    pinned.push_back(imm);
  }

  for (int level = 0; level < snap.version->num_levels(); level++) {
    for (const SortedRun& run : snap.version->levels()[level]) {
      children.push_back(std::make_unique<RunIterator>(
          versions_->table_cache(), run.files, options.fill_page_cache));
      for (const auto& file : run.files) {
        if (file->num_range_tombstones == 0) {
          continue;
        }
        // A failure here may not be swallowed: missing range tombstones
        // would silently resurrect deleted keys, so it poisons the
        // iterator instead (surfaced through status()).
        std::shared_ptr<SSTableReader> table;
        TableIndexHandle index;
        Status s = versions_->table_cache()->GetTable(*file, &table);
        if (s.ok()) {
          s = table->GetIndex(&index);
        }
        if (s.ok()) {
          rts.insert(rts.end(), index->range_tombstones.begin(),
                     index->range_tombstones.end());
        } else if (setup_status.ok()) {
          setup_status = s;
        }
      }
    }
  }

  return std::make_unique<DBIter>(
      std::move(pinned), std::move(snap.version),
      NewMergingIterator(std::move(children)), rts, bound, &stats_,
      std::move(setup_status));
}

Status DBImpl::SecondaryRangeLookup(const ReadOptions& options,
                                    uint64_t delete_key_begin,
                                    uint64_t delete_key_end,
                                    std::vector<SecondaryHit>* hits) {
  hits->clear();
  if (delete_key_begin >= delete_key_end) {
    return Status::OK();
  }
  ReadSnapshot snap = GetReadSnapshot();

  // Phase 1: gather candidate sort keys via the delete-key fences. Pages
  // whose delete-key range misses [lo, hi) are never read — this is where
  // KiWi's weave pays off for h > 1.
  std::set<std::string> candidates;
  std::vector<std::shared_ptr<MemTable>> mems = snap.imm;
  mems.push_back(snap.mem);
  for (const auto& mem : mems) {
    auto it = mem->NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const ParsedEntry& entry = it->entry();
      if (!entry.IsTombstone() && entry.delete_key >= delete_key_begin &&
          entry.delete_key < delete_key_end) {
        candidates.insert(entry.user_key.ToString());
      }
    }
  }
  for (const auto& [level, file] : snap.version->AllFiles()) {
    if (!file->OverlapsDeleteKeyRange(delete_key_begin, delete_key_end)) {
      continue;
    }
    std::shared_ptr<SSTableReader> table;
    LETHE_RETURN_IF_ERROR(versions_->table_cache()->GetTable(*file, &table));
    TableIndexHandle index;
    LETHE_RETURN_IF_ERROR(table->GetIndex(&index));
    for (uint32_t p = 0; p < index->pages.size(); p++) {
      if (file->IsPageDropped(p)) {
        continue;
      }
      const PageInfo& page = index->pages[p];
      if (page.min_delete_key >= delete_key_end ||
          page.max_delete_key < delete_key_begin) {
        continue;  // delete fences prune the read
      }
      PageHandle contents;
      bool from_cache = false;
      LETHE_RETURN_IF_ERROR(table->ReadPage(p, &contents,
                                            file->page_generation,
                                            &from_cache,
                                            options.fill_page_cache));
      if (!from_cache) {
        stats_.range_lookup_pages_read.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      for (const ParsedEntry& entry : contents->entries) {
        if (!entry.IsTombstone() && entry.delete_key >= delete_key_begin &&
            entry.delete_key < delete_key_end) {
          candidates.insert(entry.user_key.ToString());
        }
      }
    }
  }

  // Phase 2: verify each candidate against the primary read path — only
  // the *live* version of a key counts, and its delete key must itself
  // qualify (a candidate may be a superseded or deleted version).
  for (const std::string& key : candidates) {
    std::string value;
    uint64_t delete_key;
    Status s = GetWithDeleteKey(options, key, &value, &delete_key);
    if (s.IsNotFound()) {
      continue;
    }
    LETHE_RETURN_IF_ERROR(s);
    if (delete_key >= delete_key_begin && delete_key < delete_key_end) {
      hits->push_back({key, std::move(value), delete_key});
    }
  }
  return Status::OK();
}

std::vector<LevelSnapshot> DBImpl::GetLevelSnapshots() {
  std::shared_ptr<const Version> version = versions_->current();
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
  std::shared_ptr<const Version> version = versions_->current();
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
  uint64_t count = snap.version->TotalLiveEntries() + snap.mem->num_entries();
  for (const auto& imm : snap.imm) {
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
  std::shared_ptr<const Version> version = versions_->current();
  for (int level = 0; level < version->num_levels(); level++) {
    const auto& runs = version->levels()[level];
    if (options_.compaction_style == CompactionStyle::kLeveling &&
        runs.size() > 1) {
      return Status::Corruption("leveling holds " +
                                std::to_string(runs.size()) +
                                " runs at level " + std::to_string(level));
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

}  // namespace lethe
