#include "src/core/tuner.h"

#include <algorithm>
#include <cmath>

#include "src/core/db.h"

namespace lethe {

TreeShape MeasuredTreeShape(const std::vector<LevelSnapshot>& levels) {
  TreeShape shape;
  uint64_t entries = 0, pages = 0;
  for (const LevelSnapshot& level : levels) {
    if (level.num_files == 0) {
      continue;
    }
    entries += level.num_entries;
    pages += level.num_pages;
    shape.levels = std::max<double>(shape.levels, level.level);
  }
  if (pages > 0) {
    shape.total_entries = static_cast<double>(entries);
    shape.entries_per_page = static_cast<double>(entries) / pages;
  }
  return shape;
}

double WorkloadCost(const WorkloadMix& mix, const TreeShape& shape,
                    double h) {
  // Eq. 1 left-hand side: per-operation expected I/O under tile size h.
  const double fpr = shape.false_positive_rate;
  const double pages = shape.total_entries / shape.entries_per_page;
  double cost = 0;
  cost += mix.f_empty_point_query * fpr * h;
  cost += mix.f_point_query * (1.0 + fpr * h);
  cost += mix.f_short_range_query * shape.levels * h;
  cost += mix.f_long_range_query * mix.long_range_selectivity * pages;
  cost += mix.f_secondary_range_delete * pages / h;
  cost += mix.f_insert * std::log(std::max(2.0, pages)) /
          std::log(std::max(2.0, shape.levels));
  return cost;
}

double OptimalDeleteTileBound(const WorkloadMix& mix,
                              const TreeShape& shape) {
  if (mix.f_secondary_range_delete <= 0) {
    return 1.0;
  }
  // Eq. 3: h <= (N/B) / ((f_EPQ + f_PQ)/f_SRD · FPR + f_SRQ/f_SRD · L).
  const double pages = shape.total_entries / shape.entries_per_page;
  const double point_term = (mix.f_empty_point_query + mix.f_point_query) /
                            mix.f_secondary_range_delete *
                            shape.false_positive_rate;
  const double range_term = mix.f_short_range_query /
                            mix.f_secondary_range_delete * shape.levels;
  const double denominator = point_term + range_term;
  if (denominator <= 0) {
    return pages;  // nothing constrains h; one tile per file
  }
  return std::max(1.0, pages / denominator);
}

uint32_t ChooseDeleteTileGranularity(const WorkloadMix& mix,
                                     const TreeShape& shape, uint32_t max_h) {
  double bound = OptimalDeleteTileBound(mix, shape);
  uint32_t h = 1;
  while (h * 2 <= bound && h * 2 <= max_h) {
    h *= 2;
  }
  return h;
}

}  // namespace lethe
