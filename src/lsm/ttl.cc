#include "src/lsm/ttl.h"

#include <cmath>

namespace lethe {

std::vector<uint64_t> ComputeCumulativeTtls(uint64_t dth_micros,
                                            uint32_t size_ratio,
                                            int num_disk_levels) {
  std::vector<uint64_t> cumulative;
  if (num_disk_levels <= 0 || dth_micros == 0) {
    return cumulative;
  }
  cumulative.reserve(num_disk_levels);

  // d_1 = Dth (T-1) / (T^L - 1); use double arithmetic, then clamp the last
  // cumulative value to exactly Dth so rounding never loosens the bound.
  const double t = static_cast<double>(size_ratio);
  const double denominator = std::pow(t, num_disk_levels) - 1.0;
  const double d1 =
      static_cast<double>(dth_micros) * (t - 1.0) / denominator;

  double running = 0.0;
  double level_ttl = d1;
  for (int i = 0; i < num_disk_levels; i++) {
    running += level_ttl;
    cumulative.push_back(static_cast<uint64_t>(running));
    level_ttl *= t;
  }
  cumulative.back() = dth_micros;
  return cumulative;
}

}  // namespace lethe
