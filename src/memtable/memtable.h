#ifndef LETHE_MEMTABLE_MEMTABLE_H_
#define LETHE_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/format/entry.h"
#include "src/format/iterator.h"
#include "src/format/range_tombstone.h"
#include "src/format/secondary_delete_set.h"
#include "src/memtable/skiplist.h"
#include "src/util/arena.h"
#include "src/util/slice.h"

namespace lethe {

/// One sealed chunk of buffered range tombstones: a fixed slice of the
/// insertion-order list plus a fragmented cover index built once at seal
/// time. Immutable after construction, shared by reference across every
/// later snapshot. Sealed chunks form an immutable chain through `prev`
/// (newest chunk at the head), so sealing never copies the chunk list.
struct RtChunk {
  std::vector<RangeTombstone> list;         // insertion order
  FragmentedRangeTombstoneList fragmented;  // built at seal
  std::shared_ptr<const RtChunk> prev;      // next-older chunk, or null

  RtChunk() = default;
  ~RtChunk() {
    // Unlink the chain iteratively: dropping the last reference to a long
    // chain would otherwise destroy chunks recursively, one stack frame
    // per chunk.
    std::shared_ptr<const RtChunk> p = std::move(prev);
    while (p != nullptr && p.use_count() == 1) {
      // We hold the only reference, so mutating through const is safe;
      // stealing `prev` first makes p's reassignment destroy a chain-free
      // node.
      std::shared_ptr<const RtChunk> older =
          std::move(const_cast<RtChunk&>(*p).prev);
      p = std::move(older);
    }
  }
};

/// Immutable snapshot of a memtable's buffered range tombstones, structured
/// so that publishing a new one is O(1) amortized instead of a full-list
/// clone: tombstones accumulate in a small `active` vector (at most
/// kRtChunkSize entries) that each publish copies, and every kRtChunkSize-th
/// insert seals it into an RtChunk prepended to the immutable chunk chain —
/// an O(1) pointer link, so no publish step grows with the buffered
/// tombstone count. Readers hold a snapshot via shared_ptr while the writer
/// publishes successors, so lock-free reads never observe a vector
/// mid-reallocation — exactly the old copy-on-write semantics, minus the
/// O(N) clone.
///
/// Cover queries probe each sealed chunk's fragmented index (binary search)
/// and walk the short active vector; tombstones partition exactly across
/// chunks, so the chunk-wise max/OR equals the whole-list answer.
struct BufferedRangeTombstones {
  /// Active-chunk capacity: small enough that the per-publish copy is
  /// trivially cheap, large enough that sealed-chunk count stays low.
  static constexpr size_t kRtChunkSize = 32;

  std::shared_ptr<const RtChunk> sealed;  // newest sealed chunk, or null
  std::vector<RangeTombstone> active;     // < kRtChunkSize entries
  size_t sealed_count = 0;                // tombstones across all chunks

  size_t size() const { return sealed_count + active.size(); }
  bool empty() const { return size() == 0; }

  /// Appends every tombstone in insertion order (sealed chunks first, then
  /// active) — byte-identical to the flat list the flush used to snapshot.
  void AppendTo(std::vector<RangeTombstone>* out) const;
  std::vector<RangeTombstone> ToVector() const;

  /// Same contracts as RangeTombstoneSet.
  bool Covers(const Slice& user_key, SequenceNumber seq,
              SequenceNumber max_seq = kMaxSequenceNumber) const;
  SequenceNumber MaxCoverSeq(
      const Slice& user_key,
      SequenceNumber max_seq = kMaxSequenceNumber) const;
};

/// In-memory write buffer (Level 0 in the paper's numbering): an arena-backed
/// skiplist ordered by internal key, plus a side list of range tombstones.
/// Single writer, concurrent readers.
///
/// The memtable records the insertion time of its oldest tombstone — this is
/// the source of truth FADE uses to stamp `FileMeta::oldest_tombstone_time`
/// when the buffer is flushed (the paper derives the same quantity from
/// seqnums; tracking it at the buffer boundary is exact and equally free).
///
/// Secondary range deletes purge matching buffered entries in place by
/// flagging them dead (§4.2: the buffer is mutable, so no tombstones are
/// needed for buffered data).
class MemTable {
 public:
  MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Adds an entry. `time` is the Clock reading at insertion, used for
  /// tombstone age tracking. Returns true when the entry sorted after every
  /// buffered entry and was appended at the skiplist's tail.
  bool Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           uint64_t delete_key, const Slice& value, uint64_t time);

  void AddRangeTombstone(const RangeTombstone& tombstone);

  /// Finds the most recent live entry for `user_key` with seq <= `max_seq`.
  /// Returns true and fills `*entry` (aliasing arena memory valid for the
  /// memtable's lifetime) if present. A returned tombstone means "deleted
  /// here". `max_seq` bounds visibility for snapshot reads; the default
  /// reads the latest version. Versions `hidden` (may be nullptr) removes
  /// are passed over like purged ones.
  bool Get(const Slice& user_key, ParsedEntry* entry,
           SequenceNumber max_seq = kMaxSequenceNumber,
           const SecondaryDeleteSet* hidden = nullptr) const;

  /// Iterator over live entries in internal-key order. Multiple versions of
  /// a key may be yielded (newest first); flush consolidates them.
  std::unique_ptr<InternalIterator> NewIterator() const;

  /// Snapshot of the buffered range tombstones. The write token serializes
  /// writers; readers take this snapshot concurrently, so publication is
  /// copy-on-write — mutating the live structures in place would race the
  /// lock-free read path (a reader could walk a vector mid-reallocation).
  /// Sealed chunks are shared by pointer across snapshots; only the small
  /// active chunk is copied per publish (O(1) amortized).
  std::shared_ptr<const BufferedRangeTombstones> range_tombstones() const {
    std::lock_guard<std::mutex> lock(rts_mu_);
    return rts_;
  }

  /// Highest seq <= `max_seq` of a buffered range tombstone covering `key`,
  /// 0 if none. Point-lookup fast path: the common no-range-tombstones case
  /// is one atomic load — no lock, no shared_ptr refcount traffic. (The
  /// counter is bumped after the snapshot publish, so a nonzero count
  /// always finds the tombstone in the snapshot.)
  SequenceNumber MaxRangeTombstoneCoverSeq(
      const Slice& key, SequenceNumber max_seq = kMaxSequenceNumber) const {
    if (num_range_tombstones_.load(std::memory_order_acquire) == 0) {
      return 0;
    }
    return range_tombstones()->MaxCoverSeq(key, max_seq);
  }

  /// Marks every live entry with delete key in [lo, hi) dead. Returns the
  /// number of entries purged. Range tombstones are unaffected (they carry
  /// no delete key).
  uint64_t PurgeDeleteKeyRange(uint64_t lo, uint64_t hi);

  /// Sort-key span of the live buffered entries (range tombstones not
  /// included). The list is key-ordered, so the span is its first and last
  /// live records: with nothing purged those are the first and last nodes
  /// (no walk); after a secondary-delete purge it walks the list to skip
  /// purged records. Returns false, leaving the outputs untouched, when no
  /// live entry exists.
  bool KeySpan(std::string* smallest, std::string* largest) const;

  /// Records the buffer's span: KeySpan widened over the buffered range
  /// tombstones. The write path calls it once, when it seals the memtable;
  /// a sealed memtable never changes again.
  void Freeze();

  /// The span Freeze recorded. has_span() is false when the memtable holds
  /// neither a live entry nor a range tombstone. Meaningful only once
  /// frozen: callers read it for sealed memtables alone.
  bool has_span() const { return has_span_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }

  /// False when a frozen memtable can neither hold `key` nor cover it with
  /// a range tombstone (`key` lies outside its span), so a point lookup may
  /// skip it. Call it on a sealed memtable only.
  bool MayCover(const Slice& key) const {
    return has_span_ && key.compare(Slice(smallest_)) >= 0 &&
           key.compare(Slice(largest_)) <= 0;
  }

  /// Buffered memory charged against Options::write_buffer_bytes: the entry
  /// arena plus the range-tombstone side list. Charging the tombstones
  /// matters — a pure range-delete workload buffers no arena bytes at all,
  /// and without this charge it would grow the tombstone list forever
  /// without ever tripping a flush.
  size_t ApproximateMemoryUsage() const {
    return arena_.MemoryUsage() +
           rts_bytes_.load(std::memory_order_acquire);
  }
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_acquire);
  }
  uint64_t num_point_tombstones() const {
    return num_point_tombstones_.load(std::memory_order_acquire);
  }
  bool empty() const {
    return num_entries() == 0 &&
           num_range_tombstones_.load(std::memory_order_acquire) == 0;
  }

  /// Insertion time of the oldest (point or range) tombstone, or
  /// kNoTombstoneTime.
  uint64_t oldest_tombstone_time() const {
    return oldest_tombstone_time_.load(std::memory_order_acquire);
  }

 private:
  struct KeyComparator {
    /// Records are a live flag and a fixed-width entry (memtable.cc);
    /// ordering is internal-key order.
    int operator()(const char* a, const char* b) const;
  };

  friend class MemTableIterator;

  Arena arena_;
  KeyComparator comparator_;
  SkipList<KeyComparator> table_;
  mutable std::mutex rts_mu_;  // guards the rts_ pointer swap only
  std::shared_ptr<const BufferedRangeTombstones> rts_;
  std::atomic<uint64_t> num_entries_{0};
  std::atomic<uint64_t> num_purged_{0};  // entries a secondary delete purged
  std::atomic<uint64_t> num_point_tombstones_{0};
  std::atomic<uint64_t> num_range_tombstones_{0};
  std::atomic<uint64_t> rts_bytes_{0};  // charged range-tombstone memory
  std::atomic<uint64_t> oldest_tombstone_time_;
  // Set by Freeze under the DB mutex before the memtable is published as
  // sealed, read-only after: readers reach a sealed memtable only through
  // a memtable set captured under that mutex.
  std::string smallest_;
  std::string largest_;
  bool has_span_ = false;
};

}  // namespace lethe

#endif  // LETHE_MEMTABLE_MEMTABLE_H_
