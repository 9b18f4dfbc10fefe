#include "src/lsm/version_set.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

namespace lethe {

namespace {

// MANIFEST roll limits. LogAndApply writes a fresh snapshot manifest once
// the bytes appended since the current one's snapshot record exceed
// max(kManifestRollFloorBytes, kManifestRollRatio x that record's bytes).
// The floor keeps rolls (two syncs and a rename each) rare on small trees;
// the ratio keeps the snapshot rewrite at most half of the bytes appended,
// so the MANIFEST stays within a constant factor of one snapshot.
constexpr uint64_t kManifestRollFloorBytes = 256 << 10;
constexpr uint64_t kManifestRollRatio = 2;

std::string NumberedFileName(const std::string& dbname, uint64_t number,
                             const char* suffix) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/%06" PRIu64 ".%s", number, suffix);
  return dbname + buf;
}

}  // namespace

std::string TableFileName(const std::string& dbname, uint64_t number) {
  return NumberedFileName(dbname, number, "sst");
}

std::string WalFileName(const std::string& dbname, uint64_t number) {
  return NumberedFileName(dbname, number, "wal");
}

std::string ManifestFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/MANIFEST-%06" PRIu64, number);
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

bool ParseFileName(const std::string& name, FileType* type, uint64_t* number) {
  static constexpr char kManifestPrefix[] = "MANIFEST-";
  const bool manifest = name.rfind(kManifestPrefix, 0) == 0;
  size_t pos = manifest ? sizeof(kManifestPrefix) - 1 : 0;
  const size_t digits_begin = pos;
  uint64_t n = 0;
  for (; pos < name.size() && name[pos] >= '0' && name[pos] <= '9'; pos++) {
    if (n > (UINT64_MAX - 9) / 10) {
      return false;  // more digits than any number this engine writes
    }
    n = n * 10 + static_cast<uint64_t>(name[pos] - '0');
  }
  if (pos == digits_begin) {
    return false;
  }
  FileType t;
  std::string formatted;
  if (manifest) {
    t = FileType::kManifest;
    formatted = ManifestFileName("", n);
  } else if (name.compare(pos, std::string::npos, ".sst") == 0) {
    t = FileType::kTable;
    formatted = TableFileName("", n);
  } else if (name.compare(pos, std::string::npos, ".wal") == 0) {
    t = FileType::kWal;
    formatted = WalFileName("", n);
  } else {
    return false;
  }
  if (formatted.compare(1, std::string::npos, name) != 0) {
    return false;  // e.g. extra leading zeros or a trailing suffix
  }
  *type = t;
  *number = n;
  return true;
}

Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t manifest_number) {
  const std::string tmp = dbname + "/CURRENT.tmp";
  LETHE_RETURN_IF_ERROR(WriteStringToFile(
      env, ManifestFileName("", manifest_number).substr(1) + "\n", tmp));
  return env->RenameFile(tmp, CurrentFileName(dbname));
}

Status TableCache::GetTable(const FileMeta& meta,
                            std::shared_ptr<SSTableReader>* table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(meta.file_number);
    if (it != cache_.end()) {
      *table = it->second;
      return Status::OK();
    }
  }
  std::unique_ptr<RandomAccessFile> file;
  LETHE_RETURN_IF_ERROR(env_->NewRandomAccessFile(
      TableFileName(dbname_, meta.file_number), &file));
  std::unique_ptr<SSTableReader> reader;
  LETHE_RETURN_IF_ERROR(SSTableReader::Open(table_options_, std::move(file),
                                            meta.file_size, &reader,
                                            meta.file_number, page_cache_));
  // A racing open of the same file may have won: keep its reader, so every
  // user of a file shares one (and with it the page-I/O lock that fences
  // in-place page rewrites).
  std::lock_guard<std::mutex> lock(mu_);
  *table = cache_.emplace(meta.file_number, std::move(reader)).first->second;
  return Status::OK();
}

void TableCache::Evict(uint64_t file_number) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(file_number);
  }
  if (page_cache_ != nullptr) {
    page_cache_->EvictFile(file_number);
  }
}

VersionSet::VersionSet(const Options& resolved_options, std::string dbname,
                       PageCache* page_cache, Statistics* stats,
                       uint64_t file_number_origin)
    : options_(resolved_options),
      dbname_(std::move(dbname)),
      table_cache_(resolved_options.env, resolved_options.table, dbname_,
                   page_cache),
      stats_(stats) {
  if (file_number_origin > 0) {
    // Shard bands: every file this set allocates (tables, WALs, manifests)
    // numbers upward from the origin, so file-number-keyed state in a
    // cache shared across shards can never collide. Recovery max-merges
    // the persisted counter on top, keeping reopens inside the band.
    EnsureFileNumberPast(file_number_origin);
  }
}

Status VersionSet::Recover() {
  Env* env = options_.env;
  if (!env->FileExists(CurrentFileName(dbname_))) {
    if (!options_.create_if_missing) {
      return Status::NotFound("database does not exist: " + dbname_);
    }
    LETHE_RETURN_IF_ERROR(env->CreateDirIfMissing(dbname_));
    return InstallSnapshot(VersionEdit());
  }

  std::string manifest_name;
  LETHE_RETURN_IF_ERROR(
      ReadFileToString(env, CurrentFileName(dbname_), &manifest_name));
  while (!manifest_name.empty() && manifest_name.back() == '\n') {
    manifest_name.pop_back();
  }
  FileType type;
  uint64_t current_number = 0;
  Status s = ParseFileName(manifest_name, &type, &current_number) &&
                     type == FileType::kManifest
                 ? LoadManifest(ManifestFileName(dbname_, current_number))
                 : Status::Corruption("CURRENT names no manifest: " +
                                      manifest_name);
  if (s.IsCorruption()) {
    // Damage is not rolled back over: an older snapshot would undo every
    // edit after it, flushed deletes included, so salvage is the operator's
    // explicit DB::Repair, as for a damaged WAL. Any other failure (EIO
    // opening or reading the file) surfaces as it is: a retry may clear it.
    return Status::Corruption("MANIFEST damaged (" + s.ToString() +
                              "); run DB::Repair to rebuild it from the "
                              "table files");
  }
  LETHE_RETURN_IF_ERROR(s);
  // Start a fresh manifest holding one snapshot record, so the log does not
  // grow across restarts. No memtable holds data yet: WAL replay comes
  // after, and a replayed memtable's own checkpoint is added at its flush.
  return WriteSnapshotManifest(kMaxSequenceNumber);
}

Status VersionSet::LoadManifest(const std::string& path) {
  std::string contents;
  LETHE_RETURN_IF_ERROR(ReadFileToString(options_.env, path, &contents));
  RecordLogScanner scanner{Slice(contents)};

  std::shared_ptr<const Version> version = std::make_shared<Version>();
  std::vector<std::pair<SequenceNumber, uint64_t>> seq_time;
  Slice record;
  RecordLogScanner::Result result;
  size_t records = 0;
  while ((result = scanner.Next(&record)) ==
         RecordLogScanner::Result::kRecord) {
    VersionEdit edit;
    LETHE_RETURN_IF_ERROR(edit.DecodeFrom(record));
    Status apply_status;
    version = Version::Apply(version.get(), edit, &apply_status);
    LETHE_RETURN_IF_ERROR(apply_status);
    ApplyCounters(edit);
    for (const auto& [seq, time] : edit.seq_time_checkpoints) {
      seq_time.emplace_back(seq, time);
    }
    records++;
  }
  // A torn tail is the append a crash cut short: the records before it
  // stand. A damaged frame is not.
  if (result == RecordLogScanner::Result::kCorrupt) {
    return Status::Corruption("manifest checksum mismatch: " + path);
  }
  if (records == 0) {
    // Every manifest opens with a snapshot record, so "no complete records"
    // means the file is damage masquerading as a torn tail. Installing the
    // empty tree it implies would let the recovery orphan sweep delete
    // every table file as unreferenced — refuse.
    return Status::Corruption("manifest contains no complete records: " +
                              path);
  }
  // Counters only ever max-merge (monotonic, so a partially-applied failed
  // attempt stays safe), but the version and the checkpoint map are
  // installed atomically here, after the whole log parsed.
  std::sort(seq_time.begin(), seq_time.end());
  {
    std::lock_guard<std::mutex> lock(seq_time_mu_);
    seq_time_map_ = std::move(seq_time);
  }
  current_ = version;
  return Status::OK();
}

Status VersionSet::InstallSnapshot(const VersionEdit& edit) {
  ApplyCounters(edit);
  Status s;
  std::shared_ptr<const Version> version = Version::Apply(nullptr, edit, &s);
  LETHE_RETURN_IF_ERROR(s);
  current_ = std::move(version);
  return WriteSnapshotManifest(kMaxSequenceNumber);
}

Status VersionSet::WriteSnapshotManifest(SequenceNumber oldest_unflushed_seq) {
  VersionEdit snapshot;
  std::shared_ptr<const Version> version = current();
  // The oldest tombstone a merge can still resolve through TimeOfSeq: one
  // in a current file, or in a frozen memtable a flush will write.
  SequenceNumber oldest_live = oldest_unflushed_seq;
  for (int level = 0; level < version->num_levels(); level++) {
    for (const SortedRun& run : version->levels()[level]) {
      for (const auto& meta : run.files) {
        snapshot.added_files.emplace_back(level, *meta);
        if (meta->HasTombstones()) {
          oldest_live = std::min(oldest_live, meta->oldest_tombstone_seq);
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(seq_time_mu_);
    // Keep the greatest checkpoint at or below oldest_live and every later
    // one: TimeOfSeq then answers as before for every seq >= oldest_live.
    auto keep = std::upper_bound(seq_time_map_.begin(), seq_time_map_.end(),
                                 std::make_pair(oldest_live, UINT64_MAX));
    if (keep != seq_time_map_.begin()) {
      seq_time_map_.erase(seq_time_map_.begin(), std::prev(keep));
    }
    snapshot.seq_time_checkpoints = seq_time_map_;
  }
  const uint64_t number = NewFileNumber();
  snapshot.next_file_number = next_file_number_.load();
  snapshot.last_sequence = last_sequence_.load();
  snapshot.wal_number = wal_number_;
  snapshot.next_run_id = next_run_id_.load();
  if (version->secondary_deletes() != nullptr) {
    snapshot.secondary_deletes = *version->secondary_deletes();
  }
  std::string payload;
  snapshot.EncodeTo(&payload);

  // Built aside and swapped in only once CURRENT names it: on any failure
  // the manifest in use stays in use, and the partial file goes.
  Env* env = options_.env;
  const std::string name = ManifestFileName(dbname_, number);
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(name, &file);
  std::unique_ptr<RecordLogWriter> writer;
  if (s.ok()) {
    writer = std::make_unique<RecordLogWriter>(std::move(file));
    s = writer->AddRecord(payload);
  }
  if (s.ok()) {
    s = writer->Sync();
  }
  if (s.ok()) {
    s = SetCurrentFile(env, dbname_, number);
  }
  if (!s.ok()) {
    writer.reset();
    env->RemoveFile(name).ok();
    return s;
  }
  // Open's superseded manifest is the orphan sweep's to remove.
  const bool rolled = manifest_ != nullptr;
  const uint64_t superseded = manifest_number_;
  manifest_ = std::move(writer);
  manifest_number_ = number;
  manifest_snapshot_bytes_ = manifest_->size();
  if (rolled) {
    env->RemoveFile(ManifestFileName(dbname_, superseded)).ok();
    if (stats_ != nullptr) {
      stats_->manifest_rolls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

void VersionSet::ApplyCounters(const VersionEdit& edit) {
  // Recovery-time only (single-threaded): plain max-merge into the atomics.
  if (edit.next_file_number) {
    next_file_number_.store(std::max(next_file_number_.load(),
                                     *edit.next_file_number));
  }
  if (edit.last_sequence) {
    last_sequence_.store(std::max(last_sequence_.load(), *edit.last_sequence));
  }
  if (edit.wal_number) {
    wal_number_ = *edit.wal_number;
  }
  if (edit.next_run_id) {
    next_run_id_.store(std::max(next_run_id_.load(), *edit.next_run_id));
  }
}

void VersionSet::AddSeqTimeCheckpoint(SequenceNumber seq, uint64_t time,
                                      VersionEdit* edit) {
  {
    std::lock_guard<std::mutex> lock(seq_time_mu_);
    const auto checkpoint = std::make_pair(seq, time);
    seq_time_map_.insert(std::upper_bound(seq_time_map_.begin(),
                                          seq_time_map_.end(), checkpoint),
                         checkpoint);
  }
  edit->seq_time_checkpoints.emplace_back(seq, time);
}

uint64_t VersionSet::TimeOfSeq(SequenceNumber seq) const {
  // Greatest checkpoint with checkpoint.seq <= seq. Locked: concurrent
  // merges resolve tombstone times while a flush inserts a checkpoint.
  std::lock_guard<std::mutex> lock(seq_time_mu_);
  auto it = std::upper_bound(
      seq_time_map_.begin(), seq_time_map_.end(),
      std::make_pair(seq, UINT64_MAX));
  if (it == seq_time_map_.begin()) {
    return 0;  // before the first checkpoint: oldest possible (conservative)
  }
  return std::prev(it)->second;
}

void JobFootprint::CoverOutput(const Slice& begin, const Slice& end) {
  if (!has_output_span || begin.compare(Slice(output_begin)) < 0) {
    output_begin.assign(begin.data(), begin.size());
  }
  if (!has_output_span || end.compare(Slice(output_end)) > 0) {
    output_end.assign(end.data(), end.size());
  }
  has_output_span = true;
}

void JobFootprint::AddInput(const FileMeta& file) {
  input_files.push_back(file.file_number);
  CoverOutput(Slice(file.smallest_key), Slice(file.largest_key));
}

uint64_t VersionSet::RegisterInFlightJob(const JobFootprint& footprint) {
  uint64_t id = next_job_id_++;
  for (uint64_t file : footprint.input_files) {
    inflight_files_.insert(file);
  }
  inflight_jobs_.emplace(id, footprint);
  return id;
}

void VersionSet::UnregisterInFlightJob(uint64_t job_id) {
  auto it = inflight_jobs_.find(job_id);
  if (it == inflight_jobs_.end()) {
    return;
  }
  for (uint64_t file : it->second.input_files) {
    inflight_files_.erase(file);
  }
  inflight_jobs_.erase(it);
}

bool VersionSet::ConflictsWithInFlight(const JobFootprint& footprint) const {
  if (inflight_jobs_.empty()) {
    return false;
  }
  if (footprint.exclusive) {
    return true;  // exclusive jobs demand an empty registry
  }
  for (const auto& [id, other] : inflight_jobs_) {
    if (other.exclusive) {
      return true;
    }
    if (footprint.output_level >= 0 &&
        footprint.output_level == other.output_level &&
        Slice(footprint.output_begin).compare(Slice(other.output_end)) <= 0 &&
        Slice(other.output_begin).compare(Slice(footprint.output_end)) <= 0) {
      return true;  // overlapping outputs into one level break the run
    }
  }
  for (uint64_t file : footprint.input_files) {
    if (inflight_files_.count(file) > 0) {
      return true;  // the input is being consumed by another merge
    }
  }
  return false;
}

Status VersionSet::LogAndApply(VersionEdit* edit,
                               SequenceNumber oldest_unflushed_seq) {
  edit->next_file_number = next_file_number_.load();
  edit->last_sequence = last_sequence_.load();
  edit->next_run_id = next_run_id_.load();
  if (!edit->wal_number) {
    edit->wal_number = wal_number_;
  } else {
    wal_number_ = *edit->wal_number;
  }

  std::string payload;
  edit->EncodeTo(&payload);
  LETHE_RETURN_IF_ERROR(manifest_->AddRecord(payload));

  Status apply_status;
  std::shared_ptr<const Version> base = current();
  std::shared_ptr<const Version> next =
      Version::Apply(base.get(), *edit, &apply_status);
  LETHE_RETURN_IF_ERROR(apply_status);
  current_ = next;

  // Retire table files that were removed and not re-added (re-adding the
  // same number replaces metadata after a secondary range delete). Physical
  // deletion is deferred: a concurrent scan pinning `base` (or an older
  // snapshot) may open these files lazily, so they park in the graveyard
  // until no retired version references them.
  std::set<uint64_t> readded;
  for (const auto& [level, meta] : edit->added_files) {
    readded.insert(meta.file_number);
  }
  for (const auto& removed : edit->removed_files) {
    if (readded.count(removed.file_number)) {
      continue;
    }
    table_cache_.Evict(removed.file_number);
    graveyard_.insert(removed.file_number);
  }
  retired_versions_.emplace_back(base);
  SweepGraveyardLocked();

  // The edit is durable in the current manifest, so a failed roll loses
  // nothing: the manifest stays in use and the next edit retries.
  if (manifest_->size() - manifest_snapshot_bytes_ >
      std::max(kManifestRollFloorBytes,
               kManifestRollRatio * manifest_snapshot_bytes_)) {
    WriteSnapshotManifest(oldest_unflushed_seq).ok();
  }
  return Status::OK();
}

void VersionSet::SweepGraveyardLocked() {
  // Prune released snapshots; an alive one stays retired even while the
  // graveyard is empty — a later edit may remove files it references.
  // Careful with the compaction step: self-move-assignment of a weak_ptr
  // empties it (libstdc++ releases and then nulls the control block), so an
  // element that stays at its index must be left untouched.
  std::set<uint64_t> pinned;
  size_t alive = 0;
  for (size_t i = 0; i < retired_versions_.size(); i++) {
    std::shared_ptr<const Version> version = retired_versions_[i].lock();
    if (version == nullptr) {
      continue;  // snapshot released: no longer pins anything
    }
    if (alive != i) {
      retired_versions_[alive] = std::move(retired_versions_[i]);
    }
    alive++;
    if (graveyard_.empty()) {
      continue;  // nothing to reap; pruning is all this pass does
    }
    for (const auto& [level, file] : version->AllFiles()) {
      pinned.insert(file->file_number);
    }
  }
  retired_versions_.resize(alive);
  for (auto it = graveyard_.begin(); it != graveyard_.end();) {
    if (pinned.count(*it) == 0) {
      options_.env->RemoveFile(TableFileName(dbname_, *it)).ok();
      it = graveyard_.erase(it);
    } else {
      ++it;
    }
  }
}

void VersionSet::SweepAllObsoleteFiles() {
  for (uint64_t number : graveyard_) {
    options_.env->RemoveFile(TableFileName(dbname_, number)).ok();
  }
  graveyard_.clear();
  retired_versions_.clear();
}

}  // namespace lethe
