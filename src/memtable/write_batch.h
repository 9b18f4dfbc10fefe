#ifndef LETHE_MEMTABLE_WRITE_BATCH_H_
#define LETHE_MEMTABLE_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/slice.h"

namespace lethe {

/// An ordered collection of write operations applied atomically by
/// DB::Write: either every operation of the batch becomes visible (and is
/// logged in a single WAL append) or none does. Later operations in a batch
/// see the effect of earlier ones (a Put followed by a Delete of the same
/// key yields a deleted key).
///
/// Batching is also the unit of group commit: the write path merges the
/// batches of concurrently arriving writers into one leader-applied group,
/// amortizing one WAL append (and one sync, when requested) plus one write
/// token acquisition across all of them.
///
/// Storage: every op's key, end key and value bytes go into one buffer,
/// with a fixed-size record of offsets per op, so buffering an op allocates
/// nothing once the batch has grown to its working size. Clear() keeps the
/// capacity of both.
class WriteBatch {
 public:
  enum class OpKind : uint8_t {
    kPut = 1,
    kDelete = 2,
    kRangeDelete = 3,
    kPutExpiring = 5,
  };

  /// One buffered operation, viewed in place. `key` doubles as the begin
  /// key for range deletes; `end_key` is only non-empty for range deletes.
  /// The slices point into the batch and stay valid until the batch is
  /// next modified or destroyed.
  struct Op {
    OpKind kind = OpKind::kPut;
    Slice key;
    Slice end_key;
    uint64_t delete_key = 0;
    Slice value;
  };

  /// Forward range over the buffered ops, yielding Op views by value.
  class OpRange {
   public:
    class Iterator {
     public:
      Iterator(const WriteBatch* batch, size_t index)
          : batch_(batch), index_(index) {}
      Op operator*() const { return batch_->op(index_); }
      Iterator& operator++() {
        index_++;
        return *this;
      }
      bool operator!=(const Iterator& other) const {
        return index_ != other.index_;
      }

     private:
      const WriteBatch* batch_;
      size_t index_;
    };

    explicit OpRange(const WriteBatch* batch) : batch_(batch) {}
    Iterator begin() const { return Iterator(batch_, 0); }
    Iterator end() const { return Iterator(batch_, batch_->Count()); }

   private:
    const WriteBatch* batch_;
  };

  WriteBatch() = default;

  /// Buffers an insert/update of `key` with the given secondary delete key
  /// and value.
  void Put(const Slice& key, uint64_t delete_key, const Slice& value);

  /// Buffers a put whose delete key is an expiry `deadline` in
  /// Options::clock micros (0 = never). Reads return the value as they
  /// would a Put's until a flush or compaction that runs at or past the
  /// deadline replaces it with a tombstone, so a caller that must not see
  /// an expired value filters by deadline itself. A snapshot created
  /// before the deadline keeps reading the value until it is released.
  void PutExpiring(const Slice& key, uint64_t deadline, const Slice& value);

  /// Buffers a point delete. The tombstone's secondary delete key is stamped
  /// with the commit-time clock reading when the batch is applied, so
  /// timestamp-keyed secondary range deletes age tombstones out with the
  /// data they invalidate.
  void Delete(const Slice& key);

  /// Buffers a sort-key range delete over [begin_key, end_key).
  void RangeDelete(const Slice& begin_key, const Slice& end_key);

  /// Drops every op, keeping the buffers' capacity for reuse.
  void Clear();

  /// Number of buffered operations.
  size_t Count() const { return records_.size(); }

  /// Approximate payload bytes (keys + values), used by group commit to cap
  /// group size.
  size_t ApproximateBytes() const { return approximate_bytes_; }

  /// The `index`-th buffered op (index < Count()).
  Op op(size_t index) const;

  OpRange ops() const { return OpRange(this); }

 private:
  /// Where one op's bytes live in `rep_`: key, end key and value, back to
  /// back from `offset`.
  struct OpRecord {
    size_t offset;
    uint64_t delete_key;
    uint32_t key_size;
    uint32_t end_key_size;
    uint32_t value_size;
    OpKind kind;
  };

  void Add(OpKind kind, const Slice& key, const Slice& end_key,
           uint64_t delete_key, const Slice& value);

  std::string rep_;
  std::vector<OpRecord> records_;
  size_t approximate_bytes_ = 0;
};

}  // namespace lethe

#endif  // LETHE_MEMTABLE_WRITE_BATCH_H_
