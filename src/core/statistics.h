#ifndef LETHE_CORE_STATISTICS_H_
#define LETHE_CORE_STATISTICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/util/histogram.h"

namespace lethe {

/// Engine-wide event counters. Every metric the paper's evaluation reports is
/// derivable from these plus the IoStats of the underlying env:
///   - #compactions and bytes compacted (Fig 6B, 6C, 6F)
///   - lookup I/Os and Bloom behaviour (Fig 6D, 6I, 6K)
///   - hash computations (Fig 6K's CPU cost)
///   - full vs partial page drops for secondary range deletes (Fig 6H, 6L)
///   - tombstone flow for delete-persistence accounting (Fig 6E)
/// All counters are thread-safe and monotonically increasing, except the
/// explicitly marked gauges (current value, may go down). The fields are
/// declared, copied and merged from one list: src/core/statistics_fields.inc.
struct Statistics {
#define LETHE_STAT(name) std::atomic<uint64_t> name{0};
#define LETHE_STAT_ARRAY(name, size) \
  std::array<std::atomic<uint64_t>, size> name{};
#include "src/core/statistics_fields.inc"
#undef LETHE_STAT
#undef LETHE_STAT_ARRAY

  /// Records the duration of one completed write stall (total time +
  /// histogram sample). The write_stalls counter itself is incremented when
  /// the stall *begins*, so monitors see in-progress stalls. Thread-safe.
  void RecordStall(uint64_t micros);

  /// Snapshot of the stall-duration histogram (micros per stall).
  Histogram StallHistogram() const;

  /// Records one partitioned merge's balance: max partition output bytes ÷
  /// ideal (total / K), in permille. Thread-safe.
  void RecordSubcompactionSkew(uint64_t permille);

  /// Snapshot of the partition-skew histogram (permille per partitioned
  /// merge).
  Histogram SubcompactionSkewHistogram() const;

  /// Records one fragmented-index build's fragment count. Thread-safe.
  void RecordRtFragmentCount(uint64_t fragments);

  /// Snapshot of the per-table fragment-count histogram (one sample per
  /// fragmented-index build).
  Histogram RtFragmentHistogram() const;

  /// Records how many complete commands one event-loop drain pulled off a
  /// single connection (the observed pipeline depth). Thread-safe.
  void RecordNetPipelineDepth(uint64_t commands);

  /// Snapshot of the per-drain pipeline-depth histogram.
  Histogram NetPipelineDepthHistogram() const;

  /// Records the operation count of one coalesced per-turn WriteBatch
  /// handed to DB::Write. Thread-safe.
  void RecordNetBatchSize(uint64_t ops);

  /// Snapshot of the coalesced batch-size histogram.
  Histogram NetBatchSizeHistogram() const;

  void Reset() {
    *this = Statistics();
  }

  /// Adds every counter and gauge of `other` into this object and merges
  /// the histograms. Used by ShardedDB to aggregate per-shard statistics
  /// into one engine-wide view. Thread-safe.
  void AddFrom(const Statistics& other);

  Statistics() = default;
  Statistics(const Statistics& other) { CopyFrom(other); }
  Statistics& operator=(const Statistics& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }

 private:
  void CopyFrom(const Statistics& other);

  mutable std::mutex stall_hist_mu_;
  Histogram stall_hist_;
  Histogram subcompaction_skew_hist_;  // guarded by stall_hist_mu_
  Histogram rt_fragment_hist_;         // guarded by stall_hist_mu_
  Histogram net_pipeline_hist_;        // guarded by stall_hist_mu_
  Histogram net_batch_size_hist_;      // guarded by stall_hist_mu_
};

}  // namespace lethe

#endif  // LETHE_CORE_STATISTICS_H_
