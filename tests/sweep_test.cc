// Parameterized correctness sweeps across the engine's tuning space:
// size ratio T × compaction style × bloom budget × delete-tile granularity.
// Each configuration runs the same deterministic workload and must satisfy
// the same invariants — these catch configuration-dependent bugs that the
// targeted unit tests miss.

#include <gtest/gtest.h>

#include <tuple>

#include "src/core/lethe.h"
#include "src/workload/generator.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using test::KeyModel;
using test::ModelOp;
using workload::EncodeKey;

class SizeRatioSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, CompactionStyle>> {
};

TEST_P(SizeRatioSweepTest, CrudCorrectAcrossTreeShapes) {
  auto [size_ratio, style] = GetParam();
  auto env = NewMemEnv();
  LogicalClock clock(1);
  Options options;
  options.env = env.get();
  options.clock = &clock;
  options.write_buffer_bytes = 8 << 10;
  options.target_file_bytes = 8 << 10;
  options.size_ratio = size_ratio;
  options.compaction_style = style;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "sweepdb", &db).ok());

  KeyModel model(0, 600, test::ReproHint());
  Random rnd(size_ratio * 7 + static_cast<int>(style));
  for (int i = 0; i < 4000; i++) {
    clock.AdvanceMicros(10);
    uint64_t k = rnd.Uniform(600);
    const ModelOp op =
        rnd.NextDouble() < 0.8
            ? ModelOp::Put(k, i, "v" + std::to_string(i) + std::string(30, 'x'))
            : ModelOp::Delete(k);
    ASSERT_TRUE(model.Write(db.get(), op).ok());
  }

  // The tree must respect the style's structural invariant.
  auto snaps = db->GetLevelSnapshots();
  for (const auto& snap : snaps) {
    if (style == CompactionStyle::kLeveling) {
      EXPECT_LE(snap.num_runs, 1u) << "level " << snap.level;
    } else {
      EXPECT_LE(snap.num_runs, size_ratio) << "level " << snap.level;
    }
  }

  ASSERT_TRUE(model.CheckAll(db.get()));

  // A full compaction must not change visible state and must leave a
  // single bottom run with zero tombstones.
  ASSERT_TRUE(db->CompactAll().ok());
  uint64_t tombstones = 0;
  for (const auto& snap : db->GetLevelSnapshots()) {
    tombstones += snap.num_point_tombstones;
  }
  EXPECT_EQ(tombstones, 0u);
  EXPECT_TRUE(model.CheckScan(db.get(), 0, UINT64_MAX));
}

INSTANTIATE_TEST_SUITE_P(
    TreeShapes, SizeRatioSweepTest,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 8u, 16u),
                       ::testing::Values(CompactionStyle::kLeveling,
                                         CompactionStyle::kTiering)));

class BloomBudgetSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BloomBudgetSweepTest, LookupsCorrectAtEveryBudget) {
  uint32_t bits_per_key = GetParam();
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_bytes = 8 << 10;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 8;
  options.table.bloom_bits_per_key = bits_per_key;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "bloomdb", &db).ok());
  std::string value(40, 'b');
  for (uint64_t k = 0; k < 1000; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k * 3), k, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // Bloom filters are an optimization, never a correctness lever.
  for (uint64_t k = 0; k < 1000; k++) {
    std::string v;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k * 3), &v).ok());
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k * 3 + 1), &v).IsNotFound());
  }
}

INSTANTIATE_TEST_SUITE_P(BloomBudgets, BloomBudgetSweepTest,
                         ::testing::Values(1u, 2u, 5u, 10u, 20u));

class EntrySizeSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EntrySizeSweepTest, PagePackingHandlesValueSizes) {
  uint32_t value_size = GetParam();
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_bytes = 16 << 10;
  options.table.page_size_bytes = 1024;
  options.table.entries_per_page = 16;  // byte budget may bind first
  options.table.pages_per_tile = 4;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "sizedb", &db).ok());
  std::string value(value_size, 's');
  for (uint64_t k = 0; k < 300; k++) {
    ASSERT_TRUE(db->Put(WriteOptions(), EncodeKey(k), k, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  for (uint64_t k = 0; k < 300; k++) {
    std::string v;
    ASSERT_TRUE(db->Get(ReadOptions(), EncodeKey(k), &v).ok()) << k;
    ASSERT_EQ(v.size(), value_size);
  }
}

INSTANTIATE_TEST_SUITE_P(ValueSizes, EntrySizeSweepTest,
                         ::testing::Values(0u, 1u, 32u, 200u, 700u));

TEST(EntrySizeLimitTest, OversizedEntryRejectedCleanly) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_bytes = 4 << 10;
  options.table.page_size_bytes = 1024;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "bigdb", &db).ok());
  // An entry larger than a page cannot be stored; the flush must surface
  // InvalidArgument rather than corrupt the table.
  std::string huge(2000, 'h');
  Status s = db->Put(WriteOptions(), EncodeKey(1), 0, huge);
  if (s.ok()) {
    s = db->Flush();
  }
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace lethe
