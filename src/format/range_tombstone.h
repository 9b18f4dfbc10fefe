#ifndef LETHE_FORMAT_RANGE_TOMBSTONE_H_
#define LETHE_FORMAT_RANGE_TOMBSTONE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/format/entry.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// A range delete on the sort key: logically deletes every key in
/// [begin_key, end_key) with sequence number < seq. Stored in a dedicated
/// per-file block (not inline with data pages), matching the RocksDB
/// DeleteRange design the paper builds on. `time` records when the tombstone
/// entered the memtable, which FADE uses for exact range-tombstone ages.
struct RangeTombstone {
  std::string begin_key;
  std::string end_key;
  SequenceNumber seq = 0;
  uint64_t time = 0;

  bool Contains(const Slice& user_key) const {
    return Slice(begin_key).compare(user_key) <= 0 &&
           user_key.compare(Slice(end_key)) < 0;
  }
};

/// Serializes a list of range tombstones into a block.
void EncodeRangeTombstones(const std::vector<RangeTombstone>& tombstones,
                           std::string* dst);
Status DecodeRangeTombstones(Slice input,
                             std::vector<RangeTombstone>* tombstones);

/// Naive in-memory set of range tombstones: the reference implementation of
/// the cover queries, answered by a linear walk. The engine probes
/// FragmentedRangeTombstoneList instead; tests check it against this set.
/// Keeps tombstones sorted by begin key; Covers() answers "is (key, seq)
/// logically deleted by any tombstone in this set".
class RangeTombstoneSet {
 public:
  void Add(const RangeTombstone& tombstone);
  void AddAll(const std::vector<RangeTombstone>& tombstones);

  bool empty() const { return tombstones_.empty(); }
  size_t size() const { return tombstones_.size(); }
  const std::vector<RangeTombstone>& tombstones() const { return tombstones_; }

  /// True if some tombstone with `seq` < tombstone seq <= `max_seq`
  /// contains `user_key`. `max_seq` bounds visibility for snapshot reads:
  /// tombstones written after the snapshot must not delete entries under it.
  bool Covers(const Slice& user_key, SequenceNumber seq,
              SequenceNumber max_seq = kMaxSequenceNumber) const;

  /// Highest tombstone seq <= `max_seq` covering `user_key`, or 0 if none.
  SequenceNumber MaxCoverSeq(
      const Slice& user_key,
      SequenceNumber max_seq = kMaxSequenceNumber) const;

  /// Smallest tombstone seq strictly greater than `seq` covering
  /// `user_key`, or 0 if none. Compaction's snapshot-aware drop rule wants
  /// the *nearest* covering delete above a version: if even that one is
  /// separated from the version by a pinned snapshot, every higher cover
  /// is too, and the version must survive for that snapshot.
  SequenceNumber MinCoverSeqAbove(const Slice& user_key,
                                  SequenceNumber seq) const;

 private:
  std::vector<RangeTombstone> tombstones_;  // sorted by begin_key
};

/// RocksDB-style fragmented form of a tombstone set: the key space is split
/// at every tombstone boundary into disjoint fragments, each carrying the
/// ascending (deduplicated) list of seqs of the tombstones covering it.
/// Cover queries become one binary search over the fragment boundaries plus
/// one binary search in that fragment's seq list — O(log F + log S) however
/// many tombstones pile up on a key, where the naive set degrades to a
/// linear walk. Every engine cover probe goes through this structure.
/// Immutable once built, so one instance can be shared lock-free across
/// readers (each open table reader memoizes its table's, the memtable
/// builds one per sealed chunk, iterators and merges one per use).
///
/// All three queries are answer-identical to RangeTombstoneSet's — the
/// seq list of the fragment containing `user_key` is exactly the multiset
/// {t.seq : t.Contains(user_key)}, so max-below-bound, exists-in-window,
/// and min-above reduce to probes of one sorted array. Bit-exactness of
/// MinCoverSeqAbove in particular is what compaction's snapshot-stripe drop
/// rule relies on (see docs/architecture.md "Range tombstones").
class FragmentedRangeTombstoneList {
 public:
  FragmentedRangeTombstoneList() = default;
  explicit FragmentedRangeTombstoneList(
      const std::vector<RangeTombstone>& tombstones);

  bool empty() const { return keys_.empty(); }

  /// Number of disjoint fragments (including coverage gaps between
  /// non-overlapping tombstones, which carry an empty seq list).
  size_t num_fragments() const {
    return keys_.empty() ? 0 : keys_.size() - 1;
  }

  /// Same contract as RangeTombstoneSet::Covers.
  bool Covers(const Slice& user_key, SequenceNumber seq,
              SequenceNumber max_seq = kMaxSequenceNumber) const;

  /// Same contract as RangeTombstoneSet::MaxCoverSeq.
  SequenceNumber MaxCoverSeq(
      const Slice& user_key,
      SequenceNumber max_seq = kMaxSequenceNumber) const;

  /// Same contract as RangeTombstoneSet::MinCoverSeqAbove.
  SequenceNumber MinCoverSeqAbove(const Slice& user_key,
                                  SequenceNumber seq) const;

  /// Charge of a sealed memtable chunk against the memory budget.
  size_t ApproximateMemoryUsage() const;

 private:
  /// Seq list of the fragment containing `user_key` as [*begin, *end), or
  /// false when no fragment contains it.
  bool FragmentSeqs(const Slice& user_key, const SequenceNumber** begin,
                    const SequenceNumber** end) const;

  // Fragment i spans [keys_[i], keys_[i+1]); its covering seqs are
  // seqs_[seq_offset_[i] .. seq_offset_[i+1]), ascending and deduplicated.
  std::vector<std::string> keys_;       // sorted distinct boundary keys
  std::vector<uint32_t> seq_offset_;    // size keys_.size(); last == total
  std::vector<SequenceNumber> seqs_;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_RANGE_TOMBSTONE_H_
