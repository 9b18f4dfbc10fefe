// Multi-threaded writer bench: foreground Put latency when every write
// waits for the flushes and compactions it triggers (inline mode, the
// paper's experimental setup) versus when they overlap the foreground
// (Options::inline_compactions = false).
//
// Expected shape: throughput and mean latency are similar, but the inline
// tail (p99.9/max) carries entire flush+compaction runtimes — multiple
// milliseconds — while the background tail contains only queue waits and
// explicit stalls/slowdowns, which the stall columns account for.

#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/memtable/memtable.h"
#include "src/util/histogram.h"
#include "src/util/random.h"

namespace lethe {
namespace bench {
namespace {

constexpr int kThreads = 4;
constexpr uint64_t kOpsPerThread = 8000;
constexpr size_t kValueSize = 104;

// Offered load per thread: one Put every 250 us (16k puts/s aggregate),
// below the single background worker's merge bandwidth on this workload, so
// stalls measure policy behaviour rather than raw saturation. A fixed
// offered load is also what isolates the tail: at saturation every engine
// queues somewhere, and the inline-vs-background comparison degenerates
// into a merge-bandwidth contest.
constexpr uint64_t kPaceMicros = 250;

struct RunResult {
  Histogram latency;  // wall micros per Put
  double seconds = 0;
  Statistics stats;
  uint64_t pages_written = 0;
};

RunResult RunOne(bool inline_compactions) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 4096);

  Options options;
  options.env = &env;
  options.write_buffer_bytes = 256 << 10;
  options.target_file_bytes = 256 << 10;
  options.size_ratio = 10;
  options.table.page_size_bytes = 4096;
  options.table.entries_per_page = 16;
  options.table.bloom_bits_per_key = 10;
  options.inline_compactions = inline_compactions;
  options.max_imm_memtables = 3;

  std::unique_ptr<DB> db;
  CheckOk(DB::Open(options, "bgbenchdb", &db), "open");

  SystemClock wall;
  std::mutex merge_mu;
  RunResult result;
  uint64_t start = wall.NowMicros();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Histogram local;
      std::string value(kValueSize, 'v');
      Random rng(static_cast<uint64_t>(t) + 1);
      uint64_t next_op = wall.NowMicros();
      for (uint64_t i = 0; i < kOpsPerThread; i++) {
        next_op += kPaceMicros;
        uint64_t now = wall.NowMicros();
        if (now < next_op) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(next_op - now));
        }
        uint64_t key = rng.Next() % (kThreads * kOpsPerThread);
        uint64_t op_start = wall.NowMicros();
        CheckOk(db->Put(WriteOptions(), workload::EncodeKey(key), op_start,
                        value),
                "put");
        local.Add(wall.NowMicros() - op_start);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      result.latency.Merge(local);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CheckOk(db->Flush(), "flush");
  CheckOk(db->WaitForCompact(), "wait for compact");
  result.seconds = static_cast<double>(wall.NowMicros() - start) / 1e6;
  result.stats = db->stats();
  result.pages_written = env.stats().pages_written.load();
  return result;
}

void Report(const char* mode, const RunResult& r) {
  const uint64_t total_ops = kThreads * kOpsPerThread;
  printf("%s,%.0f,%.1f,%.1f,%.1f,%.1f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
         ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
         mode, total_ops / r.seconds, r.latency.Average(),
         r.latency.Percentile(99.0), r.latency.Percentile(99.9),
         static_cast<double>(r.latency.max()),
         r.stats.write_stalls.load(), r.stats.write_slowdowns.load(),
         r.stats.stall_micros.load(), r.stats.group_commit_batches.load(),
         r.stats.wal_appends.load(), r.pages_written);
}

// ---- worker-pool merge-bandwidth sweep -------------------------------------
//
// Unpaced saturation workload: writers produce as fast as the engine
// admits, so total runtime is governed by merge bandwidth. With one
// background worker every flush and compaction serializes; with N workers
// the disjointness scheduler overlaps the flush chain with compactions at
// deeper levels, so bandwidth scales until merges genuinely overlap.

constexpr int kSweepWriters = 2;
constexpr uint64_t kSweepOps = 60000;  // per writer, unpaced

struct SweepResult {
  double seconds = 0;
  uint64_t merge_bytes = 0;  // flush + compaction output bytes
  uint64_t stall_micros = 0;
  uint64_t jobs_dispatched = 0;
  uint64_t jobs_deferred = 0;
  uint64_t partitioned_merges = 0;  // subcompaction fan-outs (single-level sweep)
};

SweepResult RunSaturated(int background_threads) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 4096);

  Options options;
  options.env = &env;
  options.write_buffer_bytes = 256 << 10;
  options.target_file_bytes = 128 << 10;
  options.size_ratio = 4;  // more levels: more disjoint merge opportunities
  options.table.page_size_bytes = 4096;
  options.table.entries_per_page = 16;
  options.table.bloom_bits_per_key = 10;
  options.inline_compactions = false;
  options.background_threads = background_threads;
  options.max_imm_memtables = 4;
  options.enable_wal = false;  // measure merge bandwidth, not WAL appends

  std::unique_ptr<DB> db;
  CheckOk(DB::Open(options, "sweepdb", &db), "open");

  SystemClock wall;
  const uint64_t start = wall.NowMicros();
  constexpr uint64_t kKeySpace = 4 * kSweepOps;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSweepWriters; t++) {
    threads.emplace_back([&, t] {
      std::string value(104, 'v');
      Random rng(static_cast<uint64_t>(t) + 99);
      for (uint64_t i = 0; i < kSweepOps; i++) {
        CheckOk(db->Put(WriteOptions(),
                        workload::EncodeKey(rng.Next() % kKeySpace),
                        i, value),
                "put");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CheckOk(db->Flush(), "flush");
  CheckOk(db->WaitForCompact(), "wait for compact");

  SweepResult result;
  result.seconds = static_cast<double>(wall.NowMicros() - start) / 1e6;
  const Statistics& stats = db->stats();
  result.merge_bytes = stats.flush_bytes_written.load() +
                       stats.compaction_bytes_written.load();
  result.stall_micros = stats.stall_micros.load();
  result.jobs_dispatched = stats.bg_jobs_dispatched.load();
  result.jobs_deferred = stats.bg_jobs_deferred_overlap.load();
  return result;
}

void RunSweep() {
  printf("\n# Merge-bandwidth sweep: %d unpaced writer threads x %" PRIu64
         " ops, background_threads in {1, 2, 4}\n",
         kSweepWriters, kSweepOps);
  printf("# merge_mb_s = (flush + compaction bytes written) / wall time; "
         "speedup is vs 1 thread.\n");
  printf("bg_threads,seconds,merge_mb,merge_mb_s,speedup,stall_s,"
         "jobs_dispatched,deferred_overlap\n");
  double base_bw = 0;
  for (int threads : {1, 2, 4}) {
    SweepResult r = RunSaturated(threads);
    const double mb = static_cast<double>(r.merge_bytes) / (1 << 20);
    const double bw = mb / r.seconds;
    if (threads == 1) {
      base_bw = bw;
    }
    printf("%d,%.2f,%.1f,%.1f,%.2fx,%.2f,%" PRIu64 ",%" PRIu64 "\n",
           threads, r.seconds, mb, bw, bw / base_bw,
           static_cast<double>(r.stall_micros) / 1e6, r.jobs_dispatched,
           r.jobs_deferred);
  }
}

// ---- single-saturated-level subcompaction sweep ----------------------------
//
// The adversarial shape for PR 3's per-level scheduler: huge target files
// (one file per level), so at any moment the picker can hand out at most
// one compaction — one worker merges a whole level while the rest idle.
// Range-partitioned subcompactions split exactly that merge across the
// pool; merge bandwidth is the same workload's (flush + compaction bytes)
// over wall time, compared at a fixed 4 workers with and without
// splitting.
//
// Device model: every Append carries a fixed latency
// (SetAppendDelayMicros), so a merge's runtime includes per-page write
// waits the way it would on a real disk. Concurrent partitions overlap
// those waits — this is the component of the speedup that shows even on a
// single-core container; on multicore hardware the page decode/encode CPU
// parallelizes on top of it.

constexpr int kSingleLevelWriters = 2;
constexpr uint64_t kSingleLevelOps = 100000;       // per writer, unpaced
constexpr uint64_t kAppendDelayMicros = 40;        // per-page device latency

SweepResult RunSingleSaturatedLevel(int max_subcompactions) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 4096);
  env.SetAppendDelayMicros(kAppendDelayMicros);

  Options options;
  options.env = &env;
  options.write_buffer_bytes = 512 << 10;
  // One file per level: the merge granularity is the whole level, so
  // per-level parallelism has nothing to schedule concurrently.
  options.target_file_bytes = 64ull << 20;
  options.size_ratio = 4;
  options.table.page_size_bytes = 4096;
  options.table.entries_per_page = 16;
  options.table.bloom_bits_per_key = 10;
  options.inline_compactions = false;
  options.background_threads = 4;
  options.max_subcompactions = max_subcompactions;
  options.max_imm_memtables = 4;
  options.enable_wal = false;

  std::unique_ptr<DB> db;
  CheckOk(DB::Open(options, "singleleveldb", &db), "open");

  SystemClock wall;
  const uint64_t start = wall.NowMicros();
  constexpr uint64_t kKeySpace = 4 * kSingleLevelOps;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSingleLevelWriters; t++) {
    threads.emplace_back([&, t] {
      std::string value(104, 'v');
      Random rng(static_cast<uint64_t>(t) + 31);
      for (uint64_t i = 0; i < kSingleLevelOps; i++) {
        CheckOk(db->Put(WriteOptions(),
                        workload::EncodeKey(rng.Next() % kKeySpace), i,
                        value),
                "put");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CheckOk(db->Flush(), "flush");
  CheckOk(db->WaitForCompact(), "wait for compact");

  SweepResult result;
  result.seconds = static_cast<double>(wall.NowMicros() - start) / 1e6;
  const Statistics& stats = db->stats();
  result.merge_bytes = stats.flush_bytes_written.load() +
                       stats.compaction_bytes_written.load();
  result.stall_micros = stats.stall_micros.load();
  result.jobs_dispatched = stats.bg_jobs_dispatched.load();
  result.partitioned_merges = stats.partitioned_compactions.load();
  return result;
}

void RunSingleLevelSweep() {
  printf("\n# Single-saturated-level sweep: %d unpaced writers x %" PRIu64
         " ops, 4 workers, one file per level,\n",
         kSingleLevelWriters, kSingleLevelOps);
  printf("# %" PRIu64
         " us/page device write latency. max_subcompactions in {1, 4}; "
         "without splitting, one worker\n"
         "# merges the whole level while the rest idle.\n",
         kAppendDelayMicros);
  printf("max_subcompactions,seconds,merge_mb,merge_mb_s,speedup,stall_s,"
         "jobs_dispatched,partitioned_merges\n");
  double base_bw = 0;
  for (int subcompactions : {1, 4}) {
    SweepResult r = RunSingleSaturatedLevel(subcompactions);
    const double mb = static_cast<double>(r.merge_bytes) / (1 << 20);
    const double bw = mb / r.seconds;
    if (subcompactions == 1) {
      base_bw = bw;
    }
    printf("%d,%.2f,%.1f,%.1f,%.2fx,%.2f,%" PRIu64 ",%" PRIu64 "\n",
           subcompactions, r.seconds, mb, bw, bw / base_bw,
           static_cast<double>(r.stall_micros) / 1e6, r.jobs_dispatched,
           r.partitioned_merges);
  }
}

// ---- sharded saturated-ingest sweep ----------------------------------------
//
// ShardedDB vs a single tree at equal total resources: the same 4-worker
// pool, the same total write-buffer bytes (split across shards), the same
// device model (a fixed per-page write latency), and the adversarial
// one-file-per-level shape with subcompactions off — a single tree can run
// at most one merge at a time, so its flush chain serializes behind every
// compaction, while N shards run N independent merge chains on the shared
// pool. Writers drive the facade's hash router, so the comparison includes
// the real cross-shard write path (per-shard writer queues and WALs).

constexpr int kShardSweepWriters = 4;
constexpr uint64_t kShardSweepOps = 40000;  // per writer, unpaced
constexpr uint64_t kShardAppendDelayMicros = 40;
constexpr uint64_t kShardTotalBufferBytes = 512 << 10;

struct ShardSweepResult {
  int shards = 0;
  double seconds = 0;
  double puts_per_sec = 0;
  double merge_mb_s = 0;
  uint64_t stall_micros = 0;
};

ShardSweepResult RunShardedIngest(int num_shards) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 4096);
  env.SetAppendDelayMicros(kShardAppendDelayMicros);

  Options options;
  options.env = &env;
  // Equal TOTAL budget: the buffer bytes are split across the shards, and
  // every configuration shares the same 4-worker pool.
  options.write_buffer_bytes = kShardTotalBufferBytes / num_shards;
  options.target_file_bytes = 64ull << 20;  // one file per level
  options.size_ratio = 4;
  options.table.page_size_bytes = 4096;
  options.table.entries_per_page = 16;
  options.table.bloom_bits_per_key = 10;
  options.inline_compactions = false;
  options.background_threads = 4;
  options.max_subcompactions = 1;
  options.max_imm_memtables = 4;
  options.enable_wal = false;
  options.num_shards = num_shards;

  std::unique_ptr<DB> db;
  CheckOk(DB::Open(options, "shardsweepdb", &db), "open");

  SystemClock wall;
  const uint64_t start = wall.NowMicros();
  constexpr uint64_t kKeySpace = 4 * kShardSweepOps;
  std::vector<std::thread> threads;
  for (int t = 0; t < kShardSweepWriters; t++) {
    threads.emplace_back([&, t] {
      std::string value(104, 'v');
      Random rng(static_cast<uint64_t>(t) + 17);
      for (uint64_t i = 0; i < kShardSweepOps; i++) {
        CheckOk(db->Put(WriteOptions(),
                        workload::EncodeKey(rng.Next() % kKeySpace), i,
                        value),
                "put");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CheckOk(db->Flush(), "flush");
  CheckOk(db->WaitForCompact(), "wait for compact");

  ShardSweepResult result;
  result.shards = num_shards;
  result.seconds = static_cast<double>(wall.NowMicros() - start) / 1e6;
  result.puts_per_sec =
      kShardSweepWriters * kShardSweepOps / result.seconds;
  const Statistics& stats = db->stats();
  result.merge_mb_s = static_cast<double>(stats.flush_bytes_written.load() +
                                          stats.compaction_bytes_written
                                              .load()) /
                      (1 << 20) / result.seconds;
  result.stall_micros = stats.stall_micros.load();
  return result;
}

void RunShardedSweep() {
  printf("\n# Sharded saturated-ingest sweep: %d unpaced writers x %" PRIu64
         " ops, shards in {1, 4} on one 4-worker pool,\n",
         kShardSweepWriters, kShardSweepOps);
  printf("# equal total write buffer (%" PRIu64
         " KB split across shards), one file per level, %" PRIu64
         " us/page device latency.\n",
         kShardTotalBufferBytes >> 10, kShardAppendDelayMicros);
  printf("shards,seconds,puts_per_sec,merge_mb_s,speedup,stall_s\n");
  std::vector<ShardSweepResult> rows;
  for (int shards : {1, 4}) {
    rows.push_back(RunShardedIngest(shards));
  }
  const double base = rows[0].puts_per_sec;
  for (const ShardSweepResult& r : rows) {
    printf("%d,%.2f,%.0f,%.1f,%.2fx,%.2f\n", r.shards, r.seconds,
           r.puts_per_sec, r.merge_mb_s, r.puts_per_sec / base,
           static_cast<double>(r.stall_micros) / 1e6);
  }
  // Machine-readable copy for the CI artifact.
  FILE* json = fopen("bench_shards.json", "w");
  if (json != nullptr) {
    fprintf(json, "[\n");
    for (size_t i = 0; i < rows.size(); i++) {
      const ShardSweepResult& r = rows[i];
      fprintf(json,
              "  {\"shards\": %d, \"seconds\": %.3f, \"puts_per_sec\": "
              "%.0f, \"merge_mb_s\": %.2f, \"speedup_vs_1_shard\": %.3f, "
              "\"stall_s\": %.3f}%s\n",
              r.shards, r.seconds, r.puts_per_sec, r.merge_mb_s,
              r.puts_per_sec / base,
              static_cast<double>(r.stall_micros) / 1e6,
              i + 1 < rows.size() ? "," : "");
    }
    fprintf(json, "]\n");
    fclose(json);
  }
}

// ---- range-delete scale-out sweeps -----------------------------------------
//
// Three panels for the fragmented range-tombstone index:
//
//  1. Tombstone-density sweep: one table holding D overlapping range
//     tombstones plus the live keys, point-Get throughput through the
//     fragmented index (O(log F) per file probe). The tombstones all share
//     a begin key — the pileup shape where a linear walk could never
//     early-exit — so a flat curve across D is the acceptance check.
//  2. Memtable publish-cost sweep: ns per RangeDelete publish across
//     windows of a long tombstone burst. The chunked immutable-tail
//     structure keeps the per-publish copy bounded by the active chunk
//     (O(1) amortized), so the curve is flat; the old full-clone COW grew
//     linearly with the resident tombstone count.
//  3. Mixed Put/RangeDelete/Get lane at configurable tombstone density,
//     reporting throughput plus the rt_* statistics (fragment builds,
//     fragment counts, cover probes) so regressions in the lazy-build or
//     cache path show up in the CI artifact.

constexpr uint64_t kRdKeySpace = 4096;     // probe key space
constexpr uint64_t kRdProbeGets = 20000;   // timed Gets per configuration

struct RangeDelDensityRow {
  uint64_t density = 0;
  double gets_per_sec = 0;
  uint64_t fragments = 0;        // rt_fragments_total after the frag run
  uint64_t fragment_builds = 0;  // lazy builds (once per table)
  uint64_t cover_probes = 0;     // per-file fragmented probes during Gets
};

// Builds one tombstone-bearing table above a seed run (tombstones survive a
// flush only when data exists below them — a bottommost merge retires them)
// and times random point Gets. Every Get visits the tombstone table first,
// accumulates range-tombstone coverage, and finds the newer put there — so
// the measured cost difference is exactly the per-file coverage probe.
void TimeRangeDelGets(RangeDelDensityRow* row) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 4096);

  Options options;
  options.env = &env;
  // Large buffer/file so each generation flushes into a single table, and
  // tiering so the two flushed runs stack instead of merging (a merge of
  // the whole tree would be bottommost and drop the tombstones).
  options.write_buffer_bytes = 64ull << 20;
  options.target_file_bytes = 64ull << 20;
  options.size_ratio = 10;
  options.compaction_style = CompactionStyle::kTiering;
  options.table.page_size_bytes = 4096;
  options.table.entries_per_page = 16;
  options.table.bloom_bits_per_key = 10;
  options.enable_wal = false;
  // Wall-clock bench: cache decoded pages (and the fragmented RT block)
  // so the timed Gets measure in-memory probe cost, not page decoding.
  options.page_cache_bytes = 64ull << 20;

  std::unique_ptr<DB> db;
  CheckOk(DB::Open(options, "rangedeldb", &db), "open");

  // Seed run: an older generation of every key, flushed first so the
  // tombstone flush below is not bottommost.
  std::string value(kValueSize, 'v');
  for (uint64_t k = 0; k < kRdKeySpace; k++) {
    CheckOk(db->Put(WriteOptions(), workload::EncodeKey(k), k, value),
            "seed put");
  }
  CheckOk(db->Flush(), "seed flush");

  // Nested tombstones: identical begin key, ends cycling over 64 steps.
  // The fragmented index collapses the duplicates to ~65 fragments with
  // O(D) total seqs — the tombstone-pileup shape from repeated deletes of
  // the same span. The re-puts are newer than every tombstone, so the
  // timed Gets still return values.
  for (uint64_t i = 0; i < row->density; i++) {
    CheckOk(db->RangeDelete(WriteOptions(), workload::EncodeKey(0),
                            workload::EncodeKey(kRdKeySpace / 2 +
                                                (i % 64) * 32)),
            "range delete");
  }
  for (uint64_t k = 0; k < kRdKeySpace; k++) {
    CheckOk(db->Put(WriteOptions(), workload::EncodeKey(k), k, value),
            "put");
  }
  CheckOk(db->Flush(), "flush");
  CheckOk(db->WaitForCompact(), "wait for compact");

  SystemClock wall;
  std::string out;
  Random rng(314159);
  // Warm-up triggers the one-time lazy fragmentation build so the timed
  // region measures steady-state probes.
  for (int i = 0; i < 100; i++) {
    CheckOk(db->Get(ReadOptions(), workload::EncodeKey(rng.Next() %
                                                       kRdKeySpace),
                    &out),
            "warmup get");
  }
  const uint64_t start = wall.NowMicros();
  for (uint64_t i = 0; i < kRdProbeGets; i++) {
    CheckOk(db->Get(ReadOptions(), workload::EncodeKey(rng.Next() %
                                                       kRdKeySpace),
                    &out),
            "get");
  }
  const double seconds =
      static_cast<double>(wall.NowMicros() - start) / 1e6;
  const Statistics& stats = db->stats();
  row->gets_per_sec = kRdProbeGets / seconds;
  row->fragments = stats.rt_fragments_total.load();
  row->fragment_builds = stats.rt_fragment_builds.load();
  row->cover_probes = stats.rt_cover_probes.load();
}

// Memtable publish sweep: drives AddRangeTombstone directly (the publish
// path under the Write mutex) and reports mean ns/publish per window. A
// flat curve across windows is the O(1)-amortized acceptance check.
constexpr uint64_t kPublishTotal = 1 << 16;   // 65536 publishes
constexpr uint64_t kPublishWindows = 8;

struct PublishWindowRow {
  uint64_t upto = 0;      // cumulative publishes at window end
  double ns_per_op = 0;
};

std::vector<PublishWindowRow> RunPublishSweep() {
  MemTable mem;
  SystemClock wall;
  std::vector<PublishWindowRow> rows;
  constexpr uint64_t kWindow = kPublishTotal / kPublishWindows;
  uint64_t published = 0;
  for (uint64_t w = 0; w < kPublishWindows; w++) {
    const uint64_t start = wall.NowMicros();
    for (uint64_t i = 0; i < kWindow; i++) {
      RangeTombstone rt;
      rt.begin_key = workload::EncodeKey(published % kRdKeySpace);
      rt.end_key = workload::EncodeKey(published % kRdKeySpace + 64);
      rt.seq = ++published;
      mem.AddRangeTombstone(rt);
    }
    const uint64_t micros = wall.NowMicros() - start;
    rows.push_back({published,
                    static_cast<double>(micros) * 1000.0 / kWindow});
  }
  return rows;
}

// Mixed lane: unpaced Put/RangeDelete/Get threads against small buffers,
// so tombstones continuously flush into tables and the read side exercises
// the lazy build + probe path under churn.
constexpr int kRdMixedThreads = 2;
constexpr uint64_t kRdMixedOpsPerThread = 30000;

struct RangeDelMixedRow {
  double rd_fraction = 0;
  double ops_per_sec = 0;
  uint64_t fragment_builds = 0;
  uint64_t fragments_total = 0;
  uint64_t cover_probes = 0;
  double fragments_avg = 0;  // per-build fragment count (histogram mean)
};

RangeDelMixedRow RunRangeDelMixed(double rd_fraction) {
  auto base_env = NewMemEnv();
  IoCountingEnv env(base_env.get(), 4096);

  Options options;
  options.env = &env;
  options.write_buffer_bytes = 256 << 10;
  options.target_file_bytes = 256 << 10;
  options.size_ratio = 10;
  // Tiering keeps flushed runs stacked, so tombstones stay resident in
  // tables (and get probed by Gets) instead of retiring at the first
  // whole-tree merge.
  options.compaction_style = CompactionStyle::kTiering;
  options.table.page_size_bytes = 4096;
  options.table.entries_per_page = 16;
  options.table.bloom_bits_per_key = 10;
  options.enable_wal = false;

  std::unique_ptr<DB> db;
  CheckOk(DB::Open(options, "rangedelmixeddb", &db), "open");

  SystemClock wall;
  const uint64_t start = wall.NowMicros();
  std::vector<std::thread> threads;
  for (int t = 0; t < kRdMixedThreads; t++) {
    threads.emplace_back([&, t] {
      std::string value(kValueSize, 'v');
      std::string out;
      Random rng(static_cast<uint64_t>(t) + 7);
      for (uint64_t i = 0; i < kRdMixedOpsPerThread; i++) {
        const double roll = rng.NextDouble();
        const uint64_t key = rng.Next() % kRdKeySpace;
        if (roll < rd_fraction) {
          CheckOk(db->RangeDelete(WriteOptions(), workload::EncodeKey(key),
                                  workload::EncodeKey(key + 64)),
                  "range delete");
        } else if (roll < rd_fraction + 0.5) {
          CheckOk(db->Put(WriteOptions(), workload::EncodeKey(key), i,
                          value),
                  "put");
        } else {
          Status s = db->Get(ReadOptions(), workload::EncodeKey(key), &out);
          if (!s.ok() && !s.IsNotFound()) {
            CheckOk(s, "get");
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CheckOk(db->Flush(), "flush");
  CheckOk(db->WaitForCompact(), "wait for compact");

  RangeDelMixedRow row;
  row.rd_fraction = rd_fraction;
  row.ops_per_sec = kRdMixedThreads * kRdMixedOpsPerThread /
                    (static_cast<double>(wall.NowMicros() - start) / 1e6);
  const Statistics& stats = db->stats();
  row.fragment_builds = stats.rt_fragment_builds.load();
  row.fragments_total = stats.rt_fragments_total.load();
  row.cover_probes = stats.rt_cover_probes.load();
  row.fragments_avg = stats.RtFragmentHistogram().Average();
  return row;
}

void RunRangeDelSweep() {
  // Panel 1: density sweep.
  printf("\n# Range-delete density sweep: one table, D nested tombstones "
         "under %" PRIu64 " keys, %" PRIu64 " point Gets.\n",
         kRdKeySpace, kRdProbeGets);
  printf("# Per-file O(log F) probe against the cached fragmented index.\n");
  printf("density,gets_per_sec,fragments,fragment_builds,cover_probes\n");
  std::vector<RangeDelDensityRow> density_rows;
  for (uint64_t density : {64ull, 256ull, 1024ull, 4096ull}) {
    RangeDelDensityRow row;
    row.density = density;
    TimeRangeDelGets(&row);
    printf("%" PRIu64 ",%.0f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
           row.density, row.gets_per_sec, row.fragments, row.fragment_builds,
           row.cover_probes);
    density_rows.push_back(row);
  }

  // Panel 2: publish-cost sweep.
  printf("\n# Memtable publish-cost sweep: %" PRIu64
         " RangeDelete publishes, mean ns/publish per window of %" PRIu64
         ".\n",
         kPublishTotal, kPublishTotal / kPublishWindows);
  printf("# Flat across windows = O(1) amortized (chunked immutable tail); "
         "the old full-clone grew with the count.\n");
  printf("publishes,ns_per_publish\n");
  std::vector<PublishWindowRow> publish_rows = RunPublishSweep();
  for (const PublishWindowRow& r : publish_rows) {
    printf("%" PRIu64 ",%.0f\n", r.upto, r.ns_per_op);
  }

  // Panel 3: mixed lane.
  printf("\n# Mixed Put/RangeDelete/Get lane: %d unpaced threads x %" PRIu64
         " ops, rd_fraction in {0.01, 0.10}.\n",
         kRdMixedThreads, kRdMixedOpsPerThread);
  printf("rd_fraction,ops_per_sec,rt_fragment_builds,rt_fragments_total,"
         "rt_cover_probes,fragments_per_build\n");
  std::vector<RangeDelMixedRow> mixed_rows;
  for (double rd_fraction : {0.01, 0.10}) {
    RangeDelMixedRow row = RunRangeDelMixed(rd_fraction);
    printf("%.2f,%.0f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.1f\n",
           row.rd_fraction, row.ops_per_sec, row.fragment_builds,
           row.fragments_total, row.cover_probes, row.fragments_avg);
    mixed_rows.push_back(row);
  }

  // Machine-readable copy for the CI artifact.
  FILE* json = fopen("bench_rangedel.json", "w");
  if (json != nullptr) {
    fprintf(json, "{\n  \"density_sweep\": [\n");
    for (size_t i = 0; i < density_rows.size(); i++) {
      const RangeDelDensityRow& r = density_rows[i];
      fprintf(json,
              "    {\"density\": %" PRIu64 ", \"gets_per_sec\": %.0f, "
              "\"fragments\": %" PRIu64 "}%s\n",
              r.density, r.gets_per_sec, r.fragments,
              i + 1 < density_rows.size() ? "," : "");
    }
    fprintf(json, "  ],\n  \"publish_sweep\": [\n");
    for (size_t i = 0; i < publish_rows.size(); i++) {
      fprintf(json,
              "    {\"publishes\": %" PRIu64 ", \"ns_per_publish\": "
              "%.1f}%s\n",
              publish_rows[i].upto, publish_rows[i].ns_per_op,
              i + 1 < publish_rows.size() ? "," : "");
    }
    fprintf(json, "  ],\n  \"mixed_lane\": [\n");
    for (size_t i = 0; i < mixed_rows.size(); i++) {
      const RangeDelMixedRow& r = mixed_rows[i];
      fprintf(json,
              "    {\"rd_fraction\": %.2f, \"ops_per_sec\": %.0f, "
              "\"rt_fragment_builds\": %" PRIu64 ", \"rt_fragments_total\": "
              "%" PRIu64 ", \"rt_cover_probes\": %" PRIu64 "}%s\n",
              r.rd_fraction, r.ops_per_sec, r.fragment_builds,
              r.fragments_total, r.cover_probes,
              i + 1 < mixed_rows.size() ? "," : "");
    }
    fprintf(json, "  ]\n}\n");
    fclose(json);
  }
}

void Run() {
  printf("# Multi-threaded writers (%d threads x %" PRIu64
         " ops, one Put per %" PRIu64
         " us/thread): inline vs background compactions\n",
         kThreads, kOpsPerThread, kPaceMicros);
  printf("# In inline mode the Put tail carries whole flush/compaction "
         "runs; in background mode\n");
  printf("# foreground latency excludes them (stalls appear only in the "
         "explicit stall columns).\n");
  printf("mode,puts_per_sec,avg_us,p99_us,p999_us,max_us,stalls,slowdowns,"
         "stall_micros,commit_batches,wal_appends,pages_written\n");
  Report("inline", RunOne(true));
  Report("background", RunOne(false));
  RunSweep();
  RunSingleLevelSweep();
  RunShardedSweep();
  RunRangeDelSweep();
}

}  // namespace
}  // namespace bench
}  // namespace lethe

int main(int argc, char** argv) {
  // --shards-only: just the sharded ingest sweep (and its JSON artifact),
  // for CI jobs that only need the sharding datapoint.
  if (argc > 1 && std::string(argv[1]) == "--shards-only") {
    lethe::bench::RunShardedSweep();
    return 0;
  }
  // --rangedel-only: just the range-delete sweeps (and bench_rangedel.json),
  // for CI jobs that only need the tombstone-scaling datapoints.
  if (argc > 1 && std::string(argv[1]) == "--rangedel-only") {
    lethe::bench::RunRangeDelSweep();
    return 0;
  }
  lethe::bench::Run();
  return 0;
}
