#include "src/core/statistics.h"

#include <sstream>

namespace lethe {

namespace {
void Copy(std::atomic<uint64_t>& dst, const std::atomic<uint64_t>& src) {
  dst.store(src.load(std::memory_order_relaxed), std::memory_order_relaxed);
}
void Add(std::atomic<uint64_t>& dst, const std::atomic<uint64_t>& src) {
  dst.fetch_add(src.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
}
template <size_t N>
void Copy(std::array<std::atomic<uint64_t>, N>& dst,
          const std::array<std::atomic<uint64_t>, N>& src) {
  for (size_t i = 0; i < N; i++) {
    Copy(dst[i], src[i]);
  }
}
template <size_t N>
void Add(std::array<std::atomic<uint64_t>, N>& dst,
         const std::array<std::atomic<uint64_t>, N>& src) {
  for (size_t i = 0; i < N; i++) {
    Add(dst[i], src[i]);
  }
}
}  // namespace

void Statistics::RecordStall(uint64_t micros) {
  stall_micros.fetch_add(micros, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  stall_hist_.Add(micros);
}

Histogram Statistics::StallHistogram() const {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  return stall_hist_;
}

void Statistics::RecordSubcompactionSkew(uint64_t permille) {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  subcompaction_skew_hist_.Add(permille);
}

Histogram Statistics::SubcompactionSkewHistogram() const {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  return subcompaction_skew_hist_;
}

void Statistics::RecordRtFragmentCount(uint64_t fragments) {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  rt_fragment_hist_.Add(fragments);
}

Histogram Statistics::RtFragmentHistogram() const {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  return rt_fragment_hist_;
}

void Statistics::RecordNetPipelineDepth(uint64_t commands) {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  net_pipeline_hist_.Add(commands);
}

Histogram Statistics::NetPipelineDepthHistogram() const {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  return net_pipeline_hist_;
}

void Statistics::RecordNetBatchSize(uint64_t ops) {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  net_batch_size_hist_.Add(ops);
}

Histogram Statistics::NetBatchSizeHistogram() const {
  std::lock_guard<std::mutex> lock(stall_hist_mu_);
  return net_batch_size_hist_;
}

void Statistics::CopyFrom(const Statistics& other) {
#define LETHE_STAT(name) Copy(name, other.name);
#define LETHE_STAT_ARRAY(name, size) Copy(name, other.name);
#include "src/core/statistics_fields.inc"
#undef LETHE_STAT
#undef LETHE_STAT_ARRAY
  std::scoped_lock lock(stall_hist_mu_, other.stall_hist_mu_);
  stall_hist_ = other.stall_hist_;
  subcompaction_skew_hist_ = other.subcompaction_skew_hist_;
  rt_fragment_hist_ = other.rt_fragment_hist_;
  net_pipeline_hist_ = other.net_pipeline_hist_;
  net_batch_size_hist_ = other.net_batch_size_hist_;
}

void Statistics::AddFrom(const Statistics& other) {
#define LETHE_STAT(name) Add(name, other.name);
#define LETHE_STAT_ARRAY(name, size) Add(name, other.name);
#include "src/core/statistics_fields.inc"
#undef LETHE_STAT
#undef LETHE_STAT_ARRAY
  std::scoped_lock lock(stall_hist_mu_, other.stall_hist_mu_);
  stall_hist_.Merge(other.stall_hist_);
  subcompaction_skew_hist_.Merge(other.subcompaction_skew_hist_);
  rt_fragment_hist_.Merge(other.rt_fragment_hist_);
  net_pipeline_hist_.Merge(other.net_pipeline_hist_);
  net_batch_size_hist_.Merge(other.net_batch_size_hist_);
}

std::string Statistics::ToString() const {
  std::ostringstream out;
  out << "puts=" << user_puts.load() << " deletes=" << user_deletes.load()
      << " range_deletes=" << user_range_deletes.load()
      << " flushes=" << flushes.load()
      << " compactions=" << compactions.load() << " (saturation="
      << compactions_saturation_triggered.load()
      << ", ttl=" << compactions_ttl_triggered.load() << ")"
      << " compaction_bytes_written=" << compaction_bytes_written.load()
      << " tombstones_dropped=" << tombstones_dropped.load()
      << " point_lookups=" << point_lookups.load()
      << " lookup_pages=" << point_lookup_pages_read.load()
      << " page_cache_hits=" << page_cache_hits.load()
      << " page_cache_misses=" << page_cache_misses.load()
      << " filter_block_hits=" << filter_block_cache_hits.load()
      << " filter_block_misses=" << filter_block_cache_misses.load()
      << " index_block_hits=" << index_block_cache_hits.load()
      << " index_block_misses=" << index_block_cache_misses.load()
      << " rt_fragment_builds=" << rt_fragment_builds.load()
      << " rt_fragments_total=" << rt_fragments_total.load()
      << " rt_cover_probes=" << rt_cover_probes.load()
      << " rt_block_hits=" << rt_block_cache_hits.load()
      << " rt_block_misses=" << rt_block_cache_misses.load()
      << " strict_rejections=" << block_cache_strict_rejections.load()
      << " reservation_bytes=" << cache_reservation_bytes.load()
      << " bloom_probes=" << bloom_probes.load()
      << " bloom_fp=" << bloom_false_positives.load()
      << " full_page_drops=" << full_page_drops.load()
      << " partial_page_drops=" << partial_page_drops.load()
      << " group_commit_batches=" << group_commit_batches.load()
      << " wal_appends=" << wal_appends.load()
      << " partitioned_compactions=" << partitioned_compactions.load()
      << " subcompactions_dispatched=" << subcompactions_dispatched.load()
      << " bg_jobs_dispatched=" << bg_jobs_dispatched.load()
      << " bg_jobs_deferred_overlap=" << bg_jobs_deferred_overlap.load()
      << " write_stalls=" << write_stalls.load()
      << " write_slowdowns=" << write_slowdowns.load()
      << " stall_micros=" << stall_micros.load()
      << " bg_errors=[transient=" << bg_errors_by_class[0].load()
      << ",nospace=" << bg_errors_by_class[1].load()
      << ",corruption=" << bg_errors_by_class[2].load()
      << ",fatal=" << bg_errors_by_class[3].load() << "]"
      << " auto_recovery_attempts=" << auto_recovery_attempts.load()
      << " auto_recovery_successes=" << auto_recovery_successes.load()
      << " time_in_degraded_micros=" << time_in_degraded_micros.load()
      << " wal_records_skipped_corrupt=" << wal_records_skipped_corrupt.load()
      << " manifest_fallbacks=" << manifest_fallbacks.load()
      << " net_connections_accepted=" << net_connections_accepted.load()
      << " net_commands=" << net_commands.load()
      << " net_bytes_in=" << net_bytes_in.load()
      << " net_bytes_out=" << net_bytes_out.load()
      << " net_batches_coalesced=" << net_batches_coalesced.load()
      << " net_batch_ops_coalesced=" << net_batch_ops_coalesced.load()
      << " net_protocol_errors=" << net_protocol_errors.load()
      << " net_expired_lazy=" << net_expired_lazy.load()
      << " net_keys_expired_active=" << net_keys_expired_active.load();
  return out.str();
}

}  // namespace lethe
