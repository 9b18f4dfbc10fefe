#include "src/core/statistics.h"

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

}  // namespace lethe
