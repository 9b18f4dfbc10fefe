#ifndef LETHE_LSM_VERSION_SET_H_
#define LETHE_LSM_VERSION_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/options.h"
#include "src/core/statistics.h"
#include "src/format/sstable_reader.h"
#include "src/lsm/version.h"
#include "src/lsm/version_edit.h"
#include "src/util/record_log.h"
#include "src/util/status.h"

namespace lethe {

// Database file naming. All files live directly under the database
// directory.
std::string TableFileName(const std::string& dbname, uint64_t number);
std::string WalFileName(const std::string& dbname, uint64_t number);
std::string ManifestFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);

enum class FileType { kTable, kWal, kManifest };

/// The one parser of database file names: accepts a bare name (no
/// directory) only when formatting the parsed number gives back exactly
/// `name`, so "MANIFEST-000099.bak" or a quarantined "000123.sst.bad" is
/// not a database file.
bool ParseFileName(const std::string& name, FileType* type, uint64_t* number);

/// Points CURRENT at MANIFEST-<manifest_number>: writes a temp file, then
/// renames it over CURRENT, so a crash leaves the old or the new pointer.
Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t manifest_number);

/// Cache of open SSTable readers keyed by file number. Readers are immutable
/// and shared, and each pins its table's metadata for its lifetime;
/// eviction happens when the file is deleted, which also drops the file's
/// decoded pages from the page cache (when one is attached).
class TableCache {
 public:
  TableCache(Env* env, const TableOptions& table_options, std::string dbname,
             PageCache* page_cache)
      : env_(env),
        table_options_(table_options),
        dbname_(std::move(dbname)),
        page_cache_(page_cache) {}

  Status GetTable(const FileMeta& meta, std::shared_ptr<SSTableReader>* table);
  void Evict(uint64_t file_number);

  /// The engine-wide decoded-page cache; nullptr when disabled.
  PageCache* page_cache() { return page_cache_; }

 private:
  Env* env_;
  TableOptions table_options_;
  std::string dbname_;
  PageCache* page_cache_;
  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<SSTableReader>> cache_;
};

/// Footprint of one in-flight background job, the unit of the disjointness
/// rule that lets pool workers run merges concurrently:
///
///   - `input_files` are claimed exclusively: no two in-flight jobs may
///     share an input file (inputs are removed at commit, so sharing one
///     would double-remove it — and under leveling, a job that would write
///     over another job's input range necessarily pulls that input into its
///     own set, so file claims also serialize input-range conflicts).
///   - Jobs emitting output files into the same level must have disjoint
///     output key ranges [output_begin, output_end] (inclusive bounds),
///     preserving the at-most-one-run non-overlap invariant under leveling.
///     Callers pass the *input span* as the output range — outputs are
///     always contained in it, and the wider claim also fences the region
///     being rewritten.
///   - Flushes follow the same two rules and nothing more: two flushes whose
///     L0 output spans are disjoint build at the same time. Recency order
///     is kept by the DB, which installs finished flushes oldest-first.
///   - `exclusive` jobs (CompactAll, secondary range deletes) conflict with
///     everything: they scan or rewrite the whole tree.
struct JobFootprint {
  bool exclusive = false;
  std::vector<uint64_t> input_files;
  int output_level = -1;  // -1 = no file output
  std::string output_begin;  // inclusive sort-key bounds of the output
  std::string output_end;
  bool has_output_span = false;

  /// Widens [output_begin, output_end] to cover [begin, end].
  void CoverOutput(const Slice& begin, const Slice& end);

  /// Claims `file` as an input and widens the output span over its key
  /// range. Both merge paths (flush and compaction) build their footprint
  /// through this, so the span convention ConflictsWithInFlight relies on
  /// lives in exactly one place.
  void AddInput(const FileMeta& file);
};

/// Owns the mutable identity of the database: the current Version, the
/// MANIFEST log, monotonic counters (file numbers, run ids, sequence
/// numbers), and the seq→time checkpoint map FADE uses to resolve point
/// tombstone insertion times across compactions (§4.1.3: seqnums stand in
/// for timestamps, so no per-entry metadata is added).
///
/// External synchronization: the DB mutex guards every call, current()
/// included, but the atomic counters, TimeOfSeq and the table cache;
/// readers load the version from the DB's published read state instead.
class VersionSet {
 public:
  /// `page_cache` may be nullptr (decoded-page caching disabled);
  /// `stats` may be nullptr (recovery counters dropped). Every file number
  /// this set allocates is at least `file_number_origin` (see
  /// ShardContext).
  VersionSet(const Options& resolved_options, std::string dbname,
             PageCache* page_cache = nullptr, Statistics* stats = nullptr,
             uint64_t file_number_origin = 0);

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Loads or creates the database state. On success current() is valid and
  /// wal_number() names the log to replay. A MANIFEST that does not replay
  /// fails with a Corruption naming DB::Repair.
  Status Recover();

  /// Replays one manifest log into current_, the counters and the seq→time
  /// map. A torn tail ends the log; any other damage, or a log without one
  /// complete record, is Corruption. Counters only max-merge, so a failed
  /// replay leaves them safe to use; the version and the map are installed
  /// only when the whole log replays. Recover reads the manifest CURRENT
  /// names through this, and DB::Repair the ones it finds.
  Status LoadManifest(const std::string& path);

  /// Max-merges `edit`'s counters, replaces the tree with the one `edit`
  /// adds to an empty version, and writes it as a fresh snapshot manifest
  /// that CURRENT names: a new database's first manifest, and the one
  /// DB::Repair rebuilds.
  Status InstallSnapshot(const VersionEdit& edit);

  /// Persists `edit` to the MANIFEST and installs the resulting version.
  /// Stamps counters into the edit; applies any seq_time_checkpoints to the
  /// in-memory map (callers add them via AddSeqTimeCheckpoint first).
  ///
  /// Once the edits appended since the manifest's snapshot record outgrow
  /// a limit (version_set.cc), rolls the MANIFEST: writes a fresh snapshot
  /// manifest, points CURRENT at it and deletes the old one. A roll that
  /// fails leaves the old manifest in use (the edit is already in it) and
  /// is retried at the next edit; LogAndApply still returns OK. Each
  /// snapshot prunes the seq→time map down to the checkpoints a merge can
  /// still need: `oldest_unflushed_seq` is the first sequence of the oldest
  /// frozen memtable (kMaxSequenceNumber when none), whose flush may
  /// resolve tombstone times through checkpoints the tree no longer holds
  /// tombstones for. The active memtable needs none: every checkpoint
  /// predates its entries, and its flush adds its own.
  Status LogAndApply(VersionEdit* edit, SequenceNumber oldest_unflushed_seq);

  /// The installed version. Guarded by the DB mutex, like LogAndApply.
  std::shared_ptr<const Version> current() const { return current_; }

  // Monotonic counters are atomic: the background worker allocates file/run
  // numbers while merging outside the DB mutex, concurrently with the write
  // path publishing sequence numbers.
  uint64_t NewFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NewRunId() {
    return next_run_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Max-merges the file-number counter past `number`. Recovery calls this
  /// with every WAL number found on disk: background-mode WAL numbers are
  /// allocated without a manifest write, so after a crash the manifest's
  /// counter may lag them, and a fresh allocation must not collide.
  void EnsureFileNumberPast(uint64_t number) {
    uint64_t current = next_file_number_.load(std::memory_order_relaxed);
    while (current <= number &&
           !next_file_number_.compare_exchange_weak(
               current, number + 1, std::memory_order_relaxed)) {
    }
  }

  SequenceNumber LastSequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }
  void SetLastSequence(SequenceNumber seq) {
    last_sequence_.store(seq, std::memory_order_release);
  }

  uint64_t wal_number() const { return wal_number_; }
  void set_wal_number(uint64_t n) { wal_number_ = n; }

  /// Registers a checkpoint in the in-memory map and records it in `edit`
  /// for persistence.
  void AddSeqTimeCheckpoint(SequenceNumber seq, uint64_t time,
                            VersionEdit* edit);

  /// Conservative insertion-time floor for the entry with sequence `seq`.
  /// Thread-safe: merges resolve tombstone times off the DB mutex while
  /// flushes add checkpoints under it.
  uint64_t TimeOfSeq(SequenceNumber seq) const;

  // ---- in-flight job registry (disjointness scheduling) -----------------
  //
  // Externally synchronized by the DB mutex, like every other mutating call:
  // a job registers its footprint *before* releasing the mutex for merge
  // I/O and unregisters in the same critical section as its LogAndApply, so
  // claims and version membership always change together.

  /// Claims `footprint` and returns a registration id. The caller must have
  /// checked ConflictsWithInFlight first (same mutex hold).
  uint64_t RegisterInFlightJob(const JobFootprint& footprint);

  /// Releases a claim made by RegisterInFlightJob.
  void UnregisterInFlightJob(uint64_t job_id);

  /// True when `footprint` overlaps any in-flight job under the rules
  /// documented on JobFootprint. An overlapping job must defer.
  bool ConflictsWithInFlight(const JobFootprint& footprint) const;

  /// File numbers claimed as inputs by in-flight jobs; the compaction
  /// picker skips these instead of re-picking work already being done.
  const std::set<uint64_t>& InFlightInputFiles() const {
    return inflight_files_;
  }

  size_t InFlightJobCount() const { return inflight_jobs_.size(); }

  /// Table files retired from the current version but not yet reaped
  /// (possibly still pinned by snapshots). The resume-time orphan sweep
  /// must not treat these as garbage. Same external synchronization as the
  /// registry (the DB mutex).
  const std::set<uint64_t>& GraveyardFiles() const { return graveyard_; }

  TableCache* table_cache() { return &table_cache_; }
  const std::string& dbname() const { return dbname_; }
  uint64_t manifest_number() const { return manifest_number_; }

  /// Deletes every table file still parked in the graveyard, regardless of
  /// pins. Called at DB close, when no reader can remain.
  void SweepAllObsoleteFiles();

  /// Reaps unpinned graveyard files now. Normally the sweep runs at every
  /// LogAndApply; barriers call this so an idle DB does not sit on dead
  /// files until the next merge just because a since-released snapshot
  /// pinned them at commit time. Same external synchronization as
  /// LogAndApply (the DB mutex).
  void SweepObsoleteFiles() { SweepGraveyardLocked(); }

 private:
  /// Writes a manifest holding one snapshot record of the whole state,
  /// syncs it and points CURRENT at it, pruning the seq→time map first (see
  /// LogAndApply). Failure-atomic: the manifest in use changes only once
  /// CURRENT names the new one, and a failed attempt removes its file. A
  /// roll then deletes the superseded manifest; at Open the orphan sweep
  /// does.
  Status WriteSnapshotManifest(SequenceNumber oldest_unflushed_seq);
  void ApplyCounters(const VersionEdit& edit);

  /// Deletes graveyard files referenced by no still-pinned Version
  /// snapshot. Readers (iterators, in-flight merges) pin versions via
  /// shared_ptr; deleting a removed file the moment its edit commits would
  /// race a concurrent scan that opens the file lazily through an older
  /// snapshot, so removal only *retires* files here and this sweep reaps
  /// the unpinned ones on each subsequent install.
  void SweepGraveyardLocked();

  Options options_;
  std::string dbname_;
  TableCache table_cache_;
  Statistics* stats_;  // may be nullptr

  std::shared_ptr<const Version> current_;

  std::unique_ptr<RecordLogWriter> manifest_;
  uint64_t manifest_number_ = 0;
  uint64_t manifest_snapshot_bytes_ = 0;  // its snapshot record, framed

  std::atomic<uint64_t> next_file_number_{1};
  std::atomic<uint64_t> next_run_id_{1};
  std::atomic<SequenceNumber> last_sequence_{0};
  uint64_t wal_number_ = 0;

  mutable std::mutex seq_time_mu_;  // guards seq_time_map_ (see TimeOfSeq)
  std::vector<std::pair<SequenceNumber, uint64_t>> seq_time_map_;

  // Deferred table-file GC (guarded by the DB mutex, like LogAndApply):
  // files removed from the current version await deletion until no retired
  // Version snapshot still references them.
  std::set<uint64_t> graveyard_;
  std::vector<std::weak_ptr<const Version>> retired_versions_;

  // In-flight job registry (guarded by the DB mutex, see above).
  std::unordered_map<uint64_t, JobFootprint> inflight_jobs_;
  std::set<uint64_t> inflight_files_;  // union of in-flight input_files
  uint64_t next_job_id_ = 1;
};

}  // namespace lethe

#endif  // LETHE_LSM_VERSION_SET_H_
