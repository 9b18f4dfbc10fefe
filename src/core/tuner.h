#ifndef LETHE_CORE_TUNER_H_
#define LETHE_CORE_TUNER_H_

#include <cstdint>
#include <vector>

namespace lethe {

struct LevelSnapshot;

/// Workload composition for the KiWi layout tuner, expressed as operation
/// fractions (§4.2.6): zero-result point queries, non-zero point queries,
/// short range queries, long range queries (with selectivity s), secondary
/// range deletes, and inserts.
struct WorkloadMix {
  double f_empty_point_query = 0;
  double f_point_query = 0;
  double f_short_range_query = 0;
  double f_long_range_query = 0;
  double f_secondary_range_delete = 0;
  double f_insert = 0;
  double long_range_selectivity = 0;
};

/// Tree shape inputs to Eq. 2/3.
struct TreeShape {
  double total_entries = 0;      // N
  double entries_per_page = 1;   // B
  double levels = 1;             // L
  double false_positive_rate = 0.02;
};

/// The shape of a live tree, from DB::GetLevelSnapshots(): N is the live
/// entry count, B the measured entries per page (N over the pages the table
/// files hold), and L the deepest non-empty level. An empty tree yields the
/// TreeShape defaults.
TreeShape MeasuredTreeShape(const std::vector<LevelSnapshot>& levels);

/// Eq. 3: the largest delete-tile granularity h under which the KiWi
/// workload cost does not exceed the classic layout's — i.e., the optimal h
/// for the given mix. Returns at least 1 (h = 1 is the classic layout).
/// With no secondary range deletes the trade-off vanishes and h = 1 wins.
double OptimalDeleteTileBound(const WorkloadMix& mix, const TreeShape& shape);

/// Rounds the bound down to a practical power-of-two tile size in
/// [1, max_h].
uint32_t ChooseDeleteTileGranularity(const WorkloadMix& mix,
                                     const TreeShape& shape, uint32_t max_h);

/// Eq. 1/2 evaluated directly: total workload cost (expected page I/Os per
/// operation mix unit) under delete-tile granularity h. Exposed for tests
/// and the tuning example bench.
double WorkloadCost(const WorkloadMix& mix, const TreeShape& shape, double h);

}  // namespace lethe

#endif  // LETHE_CORE_TUNER_H_
