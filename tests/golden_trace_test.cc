// Golden I/O traces (ctest label "golden"). Scaled-down versions of the
// Fig 6E and Fig 6H benches, plus one tiering configuration, run on the
// benches' own deterministic bed (MemEnv + IoCountingEnv + LogicalClock,
// bench/common.h) and compared field by field against recorded constants:
// Env page and byte counts, flush and compaction counts by trigger, trivial
// moves, dropped tombstones, secondary-delete page drops, and the sorted
// per-file tombstone ages. Any change to when or what the engine merges
// moves at least one of them.
//
// Scaling: the bed's write buffer and file size shrink 16x (256 KB to
// 16 KB) and the workloads 20x (120k to 6k operations), which keeps the
// benches' multi-level trees and merge mix while the suite stays a few
// seconds long in a Debug build.
//
// A deliberate change to the cost model re-records the constants: on a
// mismatch the test prints the observed trace in initializer form.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "bench/common.h"

namespace lethe {
namespace bench {
namespace {

struct Trace {
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t bytes_written = 0;
  uint64_t flushes = 0;
  uint64_t saturation_compactions = 0;
  uint64_t ttl_compactions = 0;
  uint64_t trivial_moves = 0;
  uint64_t tombstones_dropped = 0;
  uint64_t full_page_drops = 0;
  uint64_t partial_page_drops = 0;
  // (age micros, point tombstones) per tombstone-bearing file, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> tombstone_ages;

  bool operator==(const Trace& other) const {
    return pages_read == other.pages_read &&
           pages_written == other.pages_written &&
           bytes_written == other.bytes_written &&
           flushes == other.flushes &&
           saturation_compactions == other.saturation_compactions &&
           ttl_compactions == other.ttl_compactions &&
           trivial_moves == other.trivial_moves &&
           tombstones_dropped == other.tombstones_dropped &&
           full_page_drops == other.full_page_drops &&
           partial_page_drops == other.partial_page_drops &&
           tombstone_ages == other.tombstone_ages;
  }
};

std::ostream& operator<<(std::ostream& os, const Trace& t) {
  os << "{" << t.pages_read << ", " << t.pages_written << ", "
     << t.bytes_written << ", " << t.flushes << ", "
     << t.saturation_compactions << ", " << t.ttl_compactions << ", "
     << t.trivial_moves << ", " << t.tombstones_dropped << ", "
     << t.full_page_drops << ", " << t.partial_page_drops << ", {";
  for (size_t i = 0; i < t.tombstone_ages.size(); i++) {
    os << (i > 0 ? ", " : "") << "{" << t.tombstone_ages[i].first << ", "
       << t.tombstone_ages[i].second << "}";
  }
  return os << "}}";
}

Trace Capture(TestBed* bed) {
  const Statistics& stats = bed->db->stats();
  Trace t;
  t.pages_read = bed->PagesRead();
  t.pages_written = bed->PagesWritten();
  t.bytes_written = bed->BytesWritten();
  t.flushes = stats.flushes.load();
  t.saturation_compactions = stats.compactions_saturation_triggered.load();
  t.ttl_compactions = stats.compactions_ttl_triggered.load();
  t.trivial_moves = stats.trivial_moves.load();
  t.tombstones_dropped = stats.tombstones_dropped.load();
  t.full_page_drops = stats.full_page_drops.load();
  t.partial_page_drops = stats.partial_page_drops.load();
  for (const TombstoneAgeSample& sample : bed->db->GetTombstoneAges()) {
    t.tombstone_ages.emplace_back(sample.age_micros,
                                  sample.num_point_tombstones);
  }
  std::sort(t.tombstone_ages.begin(), t.tombstone_ages.end());
  return t;
}

constexpr uint64_t kOps = 6000;
constexpr uint64_t kMicrosPerOp = 1000;
constexpr uint64_t kScaledBufferBytes = 16 << 10;

/// MakeBed's configuration with the buffer and file size scaled down,
/// reopened under a fresh name with the Env counters zeroed.
std::unique_ptr<TestBed> ScaledBed(
    uint64_t dth_micros, uint32_t pages_per_tile = 1,
    CompactionStyle style = CompactionStyle::kLeveling) {
  auto bed = MakeBed(dth_micros, pages_per_tile);
  bed->db.reset();
  bed->options.write_buffer_bytes = kScaledBufferBytes;
  bed->options.target_file_bytes = kScaledBufferBytes;
  bed->options.compaction_style = style;
  CheckOk(DB::Open(bed->options, "goldendb", &bed->db), "reopen");
  bed->env->stats().Reset();
  return bed;
}

// Fig 6E: a 10%-delete ingest, FADE's D_th as a fraction of the run.
Trace RunFig6e(double dth_fraction) {
  auto bed = ScaledBed(
      static_cast<uint64_t>(kOps * kMicrosPerOp * dth_fraction));
  RunWorkload(bed.get(), WriteWorkload(kOps, /*delete_fraction=*/0.10),
              kMicrosPerOp);
  return Capture(bed.get());
}

// Fig 6H: random sort keys with timestamp delete keys, a quiescent tree,
// then one secondary range delete over a quarter of the delete keys.
Trace RunFig6h(uint32_t pages_per_tile) {
  auto bed = ScaledBed(/*dth_micros=*/0, pages_per_tile);
  std::string value(104, 'v');
  for (uint64_t i = 0; i < kOps; i++) {
    CheckOk(bed->db->Put(WriteOptions(),
                         workload::EncodeKey(0x9e3779b97f4a7c15ull * (i + 1)),
                         /*delete_key=*/i, value),
            "put");
  }
  CheckOk(bed->db->CompactUntilQuiescent(), "compact");
  CheckOk(bed->db->SecondaryRangeDelete(WriteOptions(), 0, kOps / 4), "srd");
  return Capture(bed.get());
}

// Tiering (T = 10) with FADE at D_th = 25%: L0 stacks up to T runs, TTL and
// saturation triggers interleave, and the run ends at a quiescent tree.
Trace RunTiering() {
  auto bed = ScaledBed(kOps * kMicrosPerOp / 4, /*pages_per_tile=*/1,
                       CompactionStyle::kTiering);
  RunWorkload(bed.get(), WriteWorkload(kOps, /*delete_fraction=*/0.10),
              kMicrosPerOp);
  CheckOk(bed->db->CompactUntilQuiescent(), "compact");
  return Capture(bed.get());
}

TEST(GoldenTraceTest, Fig6eRocksDB) {
  EXPECT_EQ(RunFig6e(0.0),
            (Trace{5104, 8936, 13640489,
                   75, 83, 0, 1, 476, 0, 0,
                   {{364000, 3}, {441000, 3}, {678000, 2}, {755000, 4},
                    {832000, 2}, {832000, 3}, {832000, 5}, {1068000, 3},
                    {1383000, 5}, {1782000, 3}, {2098000, 7}, {2255000, 4},
                    {2493000, 8}}}));
}

TEST(GoldenTraceTest, Fig6eLethe16) {
  EXPECT_EQ(RunFig6e(0.1667),
            (Trace{10659, 17809, 27620576,
                   75, 1, 121, 1, 548, 0, 0, {}}));
}

TEST(GoldenTraceTest, Fig6eLethe25) {
  EXPECT_EQ(RunFig6e(0.25),
            (Trace{10333, 17269, 26785672,
                   75, 1, 117, 1, 546, 0, 0,
                   {{103000, 2}, {103000, 3}}}));
}

TEST(GoldenTraceTest, Fig6eLethe50) {
  EXPECT_EQ(RunFig6e(0.50),
            (Trace{5489, 9474, 14466534,
                   75, 3, 94, 1, 525, 0, 0,
                   {{183000, 3}, {183000, 4}, {183000, 4}}}));
}

TEST(GoldenTraceTest, Fig6hSecondaryDeleteH1) {
  EXPECT_EQ(RunFig6h(1),
            (Trace{7621, 12938, 20788166,
                   82, 117, 0, 20, 0, 0, 340, {}}));
}

TEST(GoldenTraceTest, Fig6hSecondaryDeleteH8) {
  EXPECT_EQ(RunFig6h(8),
            (Trace{7393, 12710, 19851298,
                   82, 117, 0, 20, 0, 6, 112, {}}));
}

TEST(GoldenTraceTest, TieringWithFade) {
  EXPECT_EQ(RunTiering(),
            (Trace{4072, 7509, 10541623,
                   76, 8, 274, 0, 463, 0, 0,
                   {{30000, 3}, {109000, 2}, {109000, 3}, {189000, 3},
                    {189000, 7}}}));
}

}  // namespace
}  // namespace bench
}  // namespace lethe
