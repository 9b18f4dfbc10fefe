#ifndef LETHE_CORE_SNAPSHOT_H_
#define LETHE_CORE_SNAPSHOT_H_

#include <cassert>
#include <vector>

#include "src/format/entry.h"

namespace lethe {

/// An immutable point-in-time view of the database, pinned to the last
/// sequence number at creation. Obtain via DB::GetSnapshot(), read through
/// ReadOptions::snapshot, and return with DB::ReleaseSnapshot(). While a
/// snapshot is live, compaction retains every entry version and tombstone
/// the snapshot can still observe (see MergeExecutor's stripe rules), the
/// same way the table-file graveyard retains files pinned by old Versions.
///
/// Snapshots are position-stable handles owned by the DB; they are neither
/// copyable nor heap-managed by callers.
class Snapshot {
 public:
  /// Every entry with seq <= sequence() is visible to this snapshot.
  SequenceNumber sequence() const { return seq_; }

 private:
  friend class SnapshotList;
  Snapshot() = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  SequenceNumber seq_ = 0;
  uint64_t time_ = 0;  // Options::clock at creation
  Snapshot* prev_ = nullptr;
  Snapshot* next_ = nullptr;
};

/// Intrusive doubly-linked list of live snapshots, oldest first (sequence
/// numbers are monotonic, so insertion order is seq order). Externally
/// synchronized by the DB mutex, like the in-flight job registry.
class SnapshotList {
 public:
  SnapshotList() {
    head_.prev_ = &head_;
    head_.next_ = &head_;
  }

  ~SnapshotList() {
    // All snapshots must be released before the DB closes.
    assert(empty());
  }

  bool empty() const { return head_.next_ == &head_; }

  /// Creates a snapshot pinned at `seq`, taken at clock `time`, and appends
  /// it (newest at the tail).
  const Snapshot* New(SequenceNumber seq, uint64_t time = 0) {
    Snapshot* s = new Snapshot();
    s->seq_ = seq;
    s->time_ = time;
    s->prev_ = head_.prev_;
    s->next_ = &head_;
    head_.prev_->next_ = s;
    head_.prev_ = s;
    return s;
  }

  /// Unlinks and frees a snapshot returned by New.
  void Delete(const Snapshot* snapshot) {
    Snapshot* s = const_cast<Snapshot*>(snapshot);
    s->prev_->next_ = s->next_;
    s->next_->prev_ = s->prev_;
    delete s;
  }

  /// True when `snapshot` is the oldest live snapshot.
  bool IsOldest(const Snapshot* snapshot) const {
    return head_.next_ == snapshot;
  }

  /// Sequence of the oldest live snapshot; callers must check empty() first.
  SequenceNumber Oldest() const {
    assert(!empty());
    return head_.next_->seq_;
  }

  /// Creation time of the oldest live snapshot, the earliest of them all;
  /// callers must check empty() first.
  uint64_t OldestTime() const {
    assert(!empty());
    return head_.next_->time_;
  }

  /// All pinned sequence numbers, ascending. Captured under the DB mutex at
  /// merge-config build time; a snapshot taken after the capture pins only
  /// sequences at or above every entry the merge can see, so it needs no
  /// retention from that merge.
  std::vector<SequenceNumber> Seqs() const {
    std::vector<SequenceNumber> seqs;
    for (const Snapshot* s = head_.next_; s != &head_; s = s->next_) {
      seqs.push_back(s->seq_);
    }
    return seqs;
  }

  /// The creation times, in the same (ascending) order as Seqs.
  std::vector<uint64_t> Times() const {
    std::vector<uint64_t> times;
    for (const Snapshot* s = head_.next_; s != &head_; s = s->next_) {
      times.push_back(s->time_);
    }
    return times;
  }

 private:
  Snapshot head_;  // sentinel
};

}  // namespace lethe

#endif  // LETHE_CORE_SNAPSHOT_H_
