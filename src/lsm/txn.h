#ifndef LETHE_LSM_TXN_H_
#define LETHE_LSM_TXN_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/core/db.h"
#include "src/memtable/write_batch.h"

namespace lethe {

class DBImpl;

/// Optimistic concurrency control layered above the engine core, as the
/// paper's companions recommend (validation stays above the write path; no
/// transaction ids thread through the LSM itself):
///
///   - Begin pins a snapshot; every read resolves against it.
///   - Writes stage into a private WriteBatch, invisible to other readers,
///     with read-your-own-writes overlays for Get and NewIterator.
///   - Commit validates the tracked read/write keyset under the write
///     token: if any of those keys gained a committed version newer than
///     the snapshot, the transaction aborts with Status::Busy and nothing
///     is applied; otherwise the batch rides the normal leader/follower
///     group-commit path atomically.
///
/// Because validation and apply both happen while holding the write token,
/// commit order equals token order equals sequence order, and a replay of
/// committed transactions in commit_sequence() order is a serial history
/// equivalent to the concurrent execution (validated reads are still
/// current at the commit point).
///
/// Granularity and limits:
///   - Conflicts are tracked per point key. Keys yielded by a transaction
///     iterator are NOT added to the read set (no phantom protection);
///     call Get on keys whose stability the transaction depends on.
///   - RangeDelete cannot be staged (per-key validation cannot cover it).
///   - SecondaryRangeDelete is physically destructive and outside snapshot
///     isolation entirely (see DB::SecondaryRangeDelete).
///
/// Not thread-safe; one transaction belongs to one thread. The transaction
/// must be committed, rolled back, or destroyed before the DB closes.
class OptimisticTransaction {
 public:
  /// Begins a transaction on `db` (must be an engine instance created by
  /// DB::Open), pinning its snapshot now.
  explicit OptimisticTransaction(DB* db);

  /// Releases the snapshot if the transaction was never finished.
  ~OptimisticTransaction();

  OptimisticTransaction(const OptimisticTransaction&) = delete;
  OptimisticTransaction& operator=(const OptimisticTransaction&) = delete;

  /// Snapshot read with read-your-own-writes: staged Puts/Deletes of this
  /// transaction win over the snapshot. The key joins the validated read
  /// set. `options.snapshot` is ignored (the transaction's snapshot rules).
  Status Get(const ReadOptions& options, const Slice& key, std::string* value);

  /// Like Get, additionally returning the entry's delete key (a staged
  /// Put's own delete key when this transaction wrote the key).
  Status GetWithDeleteKey(const ReadOptions& options, const Slice& key,
                          std::string* value, uint64_t* delete_key);

  /// Stages an insert/update. Staged writes join the validated keyset.
  Status Put(const Slice& key, uint64_t delete_key, const Slice& value);

  /// Stages a point delete.
  Status Delete(const Slice& key);

  /// Snapshot-bound scan overlaid with this transaction's staged writes:
  /// staged values replace committed ones, staged deletes hide them.
  /// Yielded keys do not join the read set (see the class comment).
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options);

  /// Validates and applies the staged batch. Returns Status::Busy on
  /// conflict (some read or written key has a committed version newer than
  /// the snapshot); the transaction is finished either way and cannot be
  /// reused — retry with a fresh transaction.
  Status Commit(const WriteOptions& options = WriteOptions());

  /// Discards the staged writes and releases the snapshot.
  Status Rollback();

  /// The pinned snapshot (valid until the transaction finishes).
  const Snapshot* snapshot() const { return snapshot_; }

  /// Last sequence of the committed batch (the transaction's position in
  /// the serial order). Valid only after a successful Commit; read-only
  /// commits get their validation-point sequence.
  SequenceNumber commit_sequence() const { return commit_seq_; }

 private:
  struct StagedValue {
    bool deleted = false;
    uint64_t delete_key = 0;
    std::string value;
  };

  class OverlayIterator;

  DBImpl* db_ = nullptr;       // null when `db` is not an engine instance
  const Snapshot* snapshot_ = nullptr;
  WriteBatch batch_;           // ops in staging order (replayed on commit)
  std::map<std::string, StagedValue> staged_;  // last write per key
  std::set<std::string> read_keys_;
  bool finished_ = false;
  SequenceNumber commit_seq_ = 0;
};

}  // namespace lethe

#endif  // LETHE_LSM_TXN_H_
