#ifndef LETHE_BENCH_COMMON_H_
#define LETHE_BENCH_COMMON_H_

// Shared scaffolding for the figure-reproduction benches. Every bench runs
// on MemEnv + IoCountingEnv + LogicalClock so results are deterministic and
// laptop-fast; costs are reported in page I/Os and engine counters, the same
// units the paper's analysis uses (see README.md, "Paper figure <-> bench
// mapping").

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/lethe.h"
#include "src/workload/generator.h"
#include "src/workload/trace.h"

namespace lethe {
namespace bench {

/// One self-contained environment per configuration under test.
struct TestBed {
  std::unique_ptr<Env> base_env;
  std::unique_ptr<IoCountingEnv> env;
  std::unique_ptr<LogicalClock> clock;
  Options options;
  std::unique_ptr<DB> db;

  uint64_t PagesRead() const { return env->stats().pages_read.load(); }
  uint64_t PagesWritten() const { return env->stats().pages_written.load(); }
  uint64_t BytesWritten() const { return env->stats().bytes_written.load(); }
};

/// Paper-flavoured defaults scaled to seconds-per-panel: 4 KB pages, buffer
/// 256 KB, T = 10, 10 bloom bits/key. `dth_micros` = 0 reproduces the
/// RocksDB baseline (saturation trigger + min-overlap picking, h = 1);
/// nonzero enables FADE with delete-driven (SD/DD) policies, and
/// `pages_per_tile` > 1 enables KiWi. `page_cache_bytes` = 0 (the default
/// for every I/O-counting bench) keeps Env page counts faithful to the
/// paper's cost model; wall-clock benches opt into the decoded-page cache.
inline std::unique_ptr<TestBed> MakeBed(uint64_t dth_micros,
                                        uint32_t pages_per_tile = 1,
                                        uint32_t size_ratio = 10,
                                        uint64_t page_cache_bytes = 0) {
  auto bed = std::make_unique<TestBed>();
  bed->base_env = NewMemEnv();
  bed->env = std::make_unique<IoCountingEnv>(bed->base_env.get(), 4096);
  bed->clock = std::make_unique<LogicalClock>(1);

  bed->options.env = bed->env.get();
  bed->options.clock = bed->clock.get();
  bed->options.write_buffer_bytes = 256 << 10;
  bed->options.target_file_bytes = 256 << 10;
  bed->options.size_ratio = size_ratio;
  bed->options.table.page_size_bytes = 4096;
  bed->options.table.entries_per_page = 16;
  bed->options.table.pages_per_tile = pages_per_tile;
  bed->options.table.bloom_bits_per_key = 10;
  bed->options.page_cache_bytes = page_cache_bytes;
  bed->options.enable_wal = false;  // paper setup: WAL disabled
  // Barrier mode: every write waits for the flushes and compactions it
  // triggers, so merges take priority over writes exactly as the paper's
  // experiments schedule them, and each figure's I/O counts are
  // byte-identical run to run (bench_bg_writer covers background mode).
  bed->options.inline_compactions = true;
  bed->options.delete_persistence_threshold_micros = dth_micros;
  if (dth_micros > 0) {
    bed->options.file_picking = FilePickingPolicy::kMaxTombstones;
    bed->options.filter_blind_deletes = true;
  }
  Status s = DB::Open(bed->options, "benchdb", &bed->db);
  if (!s.ok()) {
    fprintf(stderr, "FATAL: open failed: %s\n", s.ToString().c_str());
    abort();
  }
  return bed;
}

inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "FATAL: %s: %s\n", what, s.ToString().c_str());
    abort();
  }
}

/// Paper §5 workload: a YCSB-A variant with deletes at `delete_fraction` of
/// ingestion, uniformly spread. Writes only (lookup phases are separate so
/// the write-path metrics stay clean).
inline workload::Spec WriteWorkload(uint64_t ops, double delete_fraction,
                                    uint64_t seed = 42) {
  workload::Spec spec;
  spec.num_user_ops = ops;
  spec.update_fraction = 0.5 - delete_fraction;
  spec.point_lookup_fraction = 0.0;
  spec.point_delete_fraction = delete_fraction;
  spec.fresh_insert_fraction = 0.5;
  spec.value_size = 104;  // + 16B key + 8B delete key ≈ 128B entries
  spec.delete_key_mode = workload::DeleteKeyMode::kTimestamp;
  spec.seed = seed;
  return spec;
}

/// Runs `spec` against the bed, advancing the logical clock by
/// `micros_per_op` per operation (the paper's ingestion rate I).
inline workload::RunnerStats RunWorkload(TestBed* bed,
                                         const workload::Spec& spec,
                                         uint64_t micros_per_op = 1000) {
  workload::Generator gen(spec);
  workload::RunnerOptions runner_options;
  runner_options.clock = bed->clock.get();
  runner_options.micros_per_op = micros_per_op;
  workload::Runner runner(bed->db.get(), runner_options);
  workload::RunnerStats stats;
  CheckOk(runner.Run(&gen, &stats), "workload run");
  return stats;
}

}  // namespace bench
}  // namespace lethe

#endif  // LETHE_BENCH_COMMON_H_
