// Reproduces Figure 6 (D): point-lookup read throughput on existing keys
// after ingesting workloads with growing delete fractions.
//
// Paper shape: Lethe's throughput exceeds RocksDB's once deletes are
// present (up to ~1.17-1.4x / +17%), because timely persistence removes
// tombstones and invalid entries from the tree and its Bloom filters; at 0%
// deletes the two are identical.

#include <cstdio>

#include "bench/common.h"

namespace lethe {
namespace bench {
namespace {

constexpr uint64_t kOps = 120000;
constexpr uint64_t kLookups = 30000;
constexpr uint64_t kMicrosPerOp = 1000;

struct Row {
  double ops_per_sec;       // wall-clock throughput
  double pages_per_lookup;  // I/O cost per lookup (count-based)
  double cache_hit_rate;    // 0 when the page cache is disabled
};

Row RunOne(double delete_fraction, double dth_fraction,
           uint64_t page_cache_bytes) {
  uint64_t duration = kOps * kMicrosPerOp;
  auto bed = MakeBed(static_cast<uint64_t>(duration * dth_fraction),
                     /*pages_per_tile=*/1, /*size_ratio=*/10,
                     page_cache_bytes);
  workload::Spec spec = WriteWorkload(kOps, delete_fraction);
  RunWorkload(bed.get(), spec, kMicrosPerOp);
  CheckOk(bed->db->Flush(), "flush");

  // Lookups on previously inserted keys (some may be deleted - the paper
  // issues lookups on existing entries which may have been invalidated).
  // Reuse the generator's key sequence by regenerating inserts, then
  // issuing Gets manually on those keys.
  workload::Generator gen(WriteWorkload(kOps, delete_fraction));
  std::vector<std::string> keys;
  workload::Op op;
  while (gen.Next(&op)) {
    if (op.type == workload::OpType::kInsert) {
      keys.push_back(op.key);
    }
  }

  uint64_t pages_before = bed->db->stats().point_lookup_pages_read.load();
  // Snapshot the cache counters too, so hit_rate covers exactly the lookup
  // phase below (the load/compaction phase also traffics the cache).
  uint64_t hits_before = bed->db->stats().page_cache_hits.load();
  uint64_t misses_before = bed->db->stats().page_cache_misses.load();
  SystemClock wall;
  uint64_t start = wall.NowMicros();
  Random rnd(7);
  for (uint64_t i = 0; i < kLookups; i++) {
    std::string value;
    bed->db->Get(ReadOptions(), keys[rnd.Uniform(keys.size())], &value).ok();
  }
  uint64_t elapsed = wall.NowMicros() - start;
  uint64_t pages =
      bed->db->stats().point_lookup_pages_read.load() - pages_before;

  Row row;
  row.ops_per_sec = elapsed == 0 ? 0 : 1e6 * kLookups / elapsed;
  row.pages_per_lookup = static_cast<double>(pages) / kLookups;
  const uint64_t hits = bed->db->stats().page_cache_hits.load() - hits_before;
  const uint64_t misses =
      bed->db->stats().page_cache_misses.load() - misses_before;
  row.cache_hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  return row;
}

void Run() {
  printf("# Figure 6 (D): read throughput vs delete fraction\n");
  printf("# (+cache rows enable the 64 MB decoded-page cache; the\n");
  printf("# paper's I/O-count columns stay on the cache-disabled configs)\n");
  printf("deletes_pct,config,lookups_per_sec,pages_per_lookup,hit_rate\n");
  const double kDeleteFractions[] = {0.0, 0.02, 0.04, 0.06, 0.08, 0.10};
  struct Config {
    const char* name;
    double dth_fraction;
    uint64_t page_cache_bytes;
  };
  const Config kConfigs[] = {{"RocksDB", 0.0, 0},
                             {"Lethe/25%", 0.25, 0},
                             {"Lethe/25%+cache", 0.25, 64ull << 20}};
  for (double d : kDeleteFractions) {
    for (const Config& config : kConfigs) {
      Row row = RunOne(d, config.dth_fraction, config.page_cache_bytes);
      printf("%.0f,%s,%.0f,%.3f,%.3f\n", d * 100, config.name,
             row.ops_per_sec, row.pages_per_lookup, row.cache_hit_rate);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace lethe

int main() {
  lethe::bench::Run();
  return 0;
}
