#include "src/format/secondary_delete_set.h"

#include <algorithm>

namespace lethe {

SecondaryDeleteSet::SecondaryDeleteSet(std::vector<SecondaryDeleteRange> ranges)
    : ranges_(std::move(ranges)) {
  for (const SecondaryDeleteRange& range : ranges_) {
    max_seq_ = std::max(max_seq_, range.seq);
    min_lo_ = std::min(min_lo_, range.lo);
    max_hi_ = std::max(max_hi_, range.hi);
  }
}

DeleteKeyIntervals SecondaryDeleteSet::IntervalsAtOrAbove(
    SequenceNumber seq) const {
  DeleteKeyIntervals intervals;
  for (const SecondaryDeleteRange& range : ranges_) {
    if (range.seq >= seq && range.lo < range.hi) {
      intervals.emplace_back(range.lo, range.hi);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  DeleteKeyIntervals merged;
  for (const auto& [lo, hi] : intervals) {
    if (!merged.empty() && lo <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, hi);
    } else {
      merged.emplace_back(lo, hi);
    }
  }
  return merged;
}

}  // namespace lethe
