#ifndef LETHE_LSM_TTL_H_
#define LETHE_LSM_TTL_H_

#include <cstdint>
#include <vector>

namespace lethe {

/// FADE's per-level TTL allocation (§4.1.2). Level i (1-based disk levels)
/// receives d_i = d_1 · T^(i-1) with Σ_{i=1..L} d_i = Dth, so files expire at
/// a constant rate per time unit despite larger levels holding exponentially
/// more files. What the policy actually compares against is the *cumulative*
/// budget c_i = d_1 + ... + d_i: a tombstone must have left level i within
/// c_i of its insertion, which makes c_L = Dth the end-to-end persistence
/// bound.
///
/// Returns c_1..c_L indexed by disk level (index 0 = first disk level).
/// Recomputed whenever the tree height changes (paper Fig 4, step 1) — the
/// computation is O(L) and effectively free.
std::vector<uint64_t> ComputeCumulativeTtls(uint64_t dth_micros,
                                            uint32_t size_ratio,
                                            int num_disk_levels);

}  // namespace lethe

#endif  // LETHE_LSM_TTL_H_
