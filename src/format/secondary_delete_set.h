#ifndef LETHE_FORMAT_SECONDARY_DELETE_SET_H_
#define LETHE_FORMAT_SECONDARY_DELETE_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/format/entry.h"

namespace lethe {

/// One secondary range delete: it removes every entry whose delete key lies
/// in [lo, hi) and whose sequence is at or below `seq`, i.e. every entry
/// that existed when the delete was issued. Entries written after it keep
/// their sequence above `seq` and survive, whatever their delete key.
struct SecondaryDeleteRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  SequenceNumber seq = 0;
};

/// Half-open delete-key intervals [first, second), ascending and disjoint.
using DeleteKeyIntervals = std::vector<std::pair<uint64_t, uint64_t>>;

/// Secondary range deletes that are logically in force but not yet applied
/// to the tables (DB::SecondaryRangeDelete in background mode). Every reader
/// and every merge treats an entry they hide as absent, exactly like an
/// entry above its read bound; one batched KiWi page pass
/// (ExecuteSecondaryRangeDelete) later removes them physically. Immutable
/// once built; ranges keep their registration order.
class SecondaryDeleteSet {
 public:
  SecondaryDeleteSet() = default;
  explicit SecondaryDeleteSet(std::vector<SecondaryDeleteRange> ranges);

  const std::vector<SecondaryDeleteRange>& ranges() const { return ranges_; }
  bool empty() const { return ranges_.empty(); }

  /// Whether some range removes the entry (delete key, seq).
  bool Hides(uint64_t delete_key, SequenceNumber seq) const {
    if (seq > max_seq_ || delete_key < min_lo_ || delete_key >= max_hi_) {
      return false;
    }
    for (const SecondaryDeleteRange& range : ranges_) {
      if (delete_key >= range.lo && delete_key < range.hi &&
          seq <= range.seq) {
        return true;
      }
    }
    return false;
  }

  /// The union of the ranges whose sequence is at least `seq`, merged into
  /// disjoint intervals. With `seq` a table's largest sequence these ranges
  /// remove every entry of the table in their delete keys (a page inside
  /// them drops whole); with its smallest sequence they are every range
  /// that may remove any of its entries.
  DeleteKeyIntervals IntervalsAtOrAbove(SequenceNumber seq) const;

 private:
  std::vector<SecondaryDeleteRange> ranges_;
  SequenceNumber max_seq_ = 0;
  uint64_t min_lo_ = UINT64_MAX;
  uint64_t max_hi_ = 0;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_SECONDARY_DELETE_SET_H_
