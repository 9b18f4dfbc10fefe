#ifndef LETHE_CORE_DB_H_
#define LETHE_CORE_DB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/core/snapshot.h"
#include "src/core/statistics.h"
#include "src/memtable/write_batch.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// User-facing forward iterator over live key-value pairs (tombstones and
/// superseded versions are filtered out).
class Iterator {
 public:
  virtual ~Iterator() = default;

  Iterator() = default;
  Iterator(const Iterator&) = delete;
  Iterator& operator=(const Iterator&) = delete;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  virtual void Seek(const Slice& target) = 0;
  virtual void Next() = 0;

  virtual Slice key() const = 0;
  virtual Slice value() const = 0;
  /// Secondary delete key of the current entry.
  virtual uint64_t delete_key() const = 0;

  virtual Status status() const = 0;
};

/// Point-in-time description of the tree used by benches and tests: one row
/// per level with file/entry/tombstone counts and the oldest tombstone age.
struct LevelSnapshot {
  int level = 0;
  uint64_t num_files = 0;
  uint64_t num_runs = 0;
  uint64_t num_entries = 0;
  uint64_t num_point_tombstones = 0;
  uint64_t num_range_tombstones = 0;
  uint64_t num_pages = 0;
  uint64_t bytes = 0;
  uint64_t oldest_tombstone_age_micros = 0;
};

/// Per-file tombstone-age sample for the Fig 6E style distribution.
struct TombstoneAgeSample {
  int level = 0;
  uint64_t age_micros = 0;        // age of file's oldest tombstone
  uint64_t num_point_tombstones = 0;
};

/// Lethe: an LSM-tree key-value engine with delete-aware compaction (FADE)
/// and the Key Weaving Storage Layout (KiWi) for secondary range deletes.
///
/// Every entry carries two keys: the *sort key* (bytes, primary access path)
/// and a 64-bit *delete key* (e.g. a timestamp) on which
/// SecondaryRangeDelete operates. A put logged with WriteBatch::PutExpiring
/// makes its delete key an expiry deadline: the flushes and compactions
/// that run past it delete the key, so TTLs need no reaper. With Options
/// defaults the engine behaves like a state-of-the-art leveled LSM (the
/// paper's RocksDB baseline); setting
/// Options::delete_persistence_threshold_micros enables FADE, and
/// Options::table.pages_per_tile > 1 enables KiWi delete tiles.
///
/// Threading: all methods are thread-safe. Writes are serialized through a
/// group-commit queue (concurrent writers' batches merge into one WAL
/// append); reads are lock-free against immutable snapshots. Flushes,
/// compactions, and secondary-delete execution run on a background
/// scheduler. By default (Options::inline_compactions) every write and
/// maintenance call waits for the work it triggers; with
/// inline_compactions = false that work overlaps the foreground and
/// writers are throttled only via the explicit slowdown/stall policy.
class DB {
 public:
  /// Opens (or creates) the database at `name`. WAL replay forgives only a
  /// torn tail in the newest log; any other WAL damage fails with a
  /// Corruption that names Repair.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* db);

  /// The one salvage step, for a database Open refuses: damaged WALs, or a
  /// MANIFEST (and fallbacks) that cannot be read. Rebuilds a fresh
  /// manifest from the table files themselves. Every .sst whose metadata
  /// checksum verifies is re-adopted (placed by its sequence range);
  /// damaged tables are quarantined as `<name>.bad`. Each WAL keeps its
  /// intact records — frames that fail their checksum or do not decode are
  /// dropped and a torn tail is cut — and replays at the next Open. FADE
  /// tombstone ages are reconstructed conservatively (a salvaged
  /// tombstone's persistence deadline never moves later). Call only on a
  /// database no process has open.
  static Status Repair(const Options& options, const std::string& name);

  virtual ~DB() = default;

  DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Inserts or updates `key` with the given delete key and value.
  virtual Status Put(const WriteOptions& options, const Slice& key,
                     uint64_t delete_key, const Slice& value) = 0;

  /// Applies `batch` atomically: one WAL append covers the whole batch, and
  /// either every operation becomes visible or none does. Concurrent Write
  /// calls are merged by group commit (a leader applies several writers'
  /// batches with a single WAL append and, when requested, a single sync).
  /// The batch is not consumed; the caller may Clear() and reuse it.
  virtual Status Write(const WriteOptions& options, WriteBatch* batch) = 0;

  /// Point delete on the sort key (inserts a tombstone).
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;

  /// Range delete on the sort key: logically deletes [begin_key, end_key).
  virtual Status RangeDelete(const WriteOptions& options,
                             const Slice& begin_key,
                             const Slice& end_key) = 0;

  /// Secondary range delete (KiWi): physically and immediately removes every
  /// entry whose delete key lies in [delete_key_begin, delete_key_end),
  /// dropping fully-covered pages without reading them. Not
  /// snapshot-isolated: iterators opened earlier and live Snapshot handles
  /// may observe the deletion — physical removal is the operation's whole
  /// point, so it does not preserve pinned versions.
  virtual Status SecondaryRangeDelete(const WriteOptions& options,
                                      uint64_t delete_key_begin,
                                      uint64_t delete_key_end) = 0;

  /// Point lookup. Returns NotFound if absent or deleted. Sees a WriteBatch
  /// that another thread is applying whole or not at all.
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) {
    uint64_t delete_key;
    return GetWithDeleteKey(options, key, value, &delete_key);
  }

  /// Like Get, additionally returning the entry's delete key.
  virtual Status GetWithDeleteKey(const ReadOptions& options, const Slice& key,
                                  std::string* value,
                                  uint64_t* delete_key) = 0;

  /// Returns a snapshot-isolated scan: the iterator is pinned at creation to
  /// ReadOptions::snapshot (when set) or to the last committed sequence, so
  /// concurrent writes never leak into an open scan. The sole exception is
  /// SecondaryRangeDelete, which removes data physically (see above).
  virtual std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) = 0;

  /// Pins the current last committed sequence: reads through
  /// ReadOptions::snapshot see exactly the state as of this call, and
  /// compaction retains any entry version or tombstone the snapshot can
  /// still observe. Must be returned via ReleaseSnapshot before Close.
  virtual const Snapshot* GetSnapshot() = 0;

  /// Releases a snapshot handle obtained from GetSnapshot. Entries retained
  /// only for this snapshot become droppable by subsequent compactions.
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Forces the memtable to disk (no-op when empty). A barrier: it returns
  /// only after every memtable that existed at call time has been flushed
  /// by the worker (in inline mode, also after the compactions those
  /// flushes triggered).
  virtual Status Flush() = 0;

  /// Barrier for background work: returns once no flush or compaction is
  /// queued or running and no compaction trigger (saturation, or a TTL that
  /// has already expired) fires against the current tree. Future TTL
  /// expiries are not waited for. Tests and benches use this to make
  /// background mode deterministic.
  virtual Status WaitForCompact() = 0;

  /// Runs compactions until no trigger (saturation or TTL) fires. With FADE
  /// enabled this persists every tombstone whose TTL has expired.
  virtual Status CompactUntilQuiescent() = 0;

  /// Full-tree compaction: merges everything into the bottommost level,
  /// persisting all deletes — the expensive state-of-the-art fallback the
  /// paper argues against (§3.1.3). Provided for baseline experiments.
  virtual Status CompactAll() = 0;

  /// Engine counters (monotonic).
  virtual const Statistics& stats() const = 0;

  /// Per-level structure snapshot.
  virtual std::vector<LevelSnapshot> GetLevelSnapshots() = 0;

  /// Per-file tombstone ages (Fig 6E).
  virtual std::vector<TombstoneAgeSample> GetTombstoneAges() = 0;

  /// Space amplification per the paper's definition (§3.2.1):
  /// (csize(N) - csize(U)) / csize(U) over entry counts, where U counts
  /// unique live user keys. Performs a full scan.
  virtual Status ComputeSpaceAmplification(double* samp) = 0;

  /// Total live entries currently in the tree (metadata-based, no I/O).
  virtual uint64_t ApproximateEntryCount() const = 0;
};

}  // namespace lethe

#endif  // LETHE_CORE_DB_H_
