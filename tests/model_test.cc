// The shared reference model has teeth: after a short real workload passes
// every check, each planted divergence between the model and the DB must be
// reported, naming the key, what was read and what was expected. Also pins
// down the two rules for failed writes: their outcomes pass only under
// kAllowAmbiguous, and a later acknowledged write revokes them.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/lethe.h"
#include "src/util/random.h"
#include "tests/model/key_model.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

using test::KeyModel;
using test::ModelOp;

constexpr uint64_t kKeys = 200;
constexpr uint64_t kDkBase = 1ull << 40;

// Keys the workload leaves in a known state: kPresent holds kValue/kDk,
// kAbsent is deleted.
constexpr uint64_t kPresent = 42;
constexpr uint64_t kAbsent = 43;
constexpr uint64_t kDk = kDkBase + 100000;
const char* const kValue = "known";

class ModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    Options options;
    options.env = env_.get();
    options.clock = &clock_;
    options.write_buffer_bytes = 8 << 10;  // several flushes and merges
    options.target_file_bytes = 8 << 10;
    options.table.page_size_bytes = 1024;
    options.table.entries_per_page = 8;
    ASSERT_TRUE(DB::Open(options, "modeldb", &db_).ok());

    Random rnd(17);
    uint64_t next_dk = kDkBase;
    for (int i = 0; i < 1500; i++) {
      clock_.AdvanceMicros(5);
      const uint64_t k = rnd.Uniform(kKeys);
      const double roll = rnd.NextDouble();
      const ModelOp op =
          roll < 0.6    ? ModelOp::Put(k, ++next_dk, "v" + std::to_string(i))
          : roll < 0.8  ? ModelOp::Delete(k)
          : roll < 0.95 ? ModelOp::RangeDelete(k, k + 1 + rnd.Uniform(8))
                        : ModelOp::SecondaryRangeDelete(
                              kDkBase, kDkBase + 1 + rnd.Uniform(i + 1));
      ASSERT_TRUE(model_.Write(db_.get(), op).ok());
    }
    ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Put(kPresent, kDk, kValue))
                    .ok());
    ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Delete(kAbsent)).ok());
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(model_.CheckAll(db_.get()));
  }

  /// Asserts that `r` failed with a message containing every fragment.
  static void ExpectReported(const ::testing::AssertionResult& r,
                             std::initializer_list<std::string> fragments) {
    ASSERT_FALSE(r) << "divergence went unreported";
    for (const std::string& fragment : fragments) {
      EXPECT_NE(std::string(r.message()).find(fragment), std::string::npos)
          << "'" << fragment << "' missing from: " << r.message();
    }
  }

  std::unique_ptr<Env> env_;
  LogicalClock clock_{1};
  std::unique_ptr<DB> db_;
  KeyModel model_{0, kKeys, test::ReproHint()};
};

TEST_F(ModelTest, WrongValueIsReported) {
  KeyModel planted = model_;
  planted.Apply(ModelOp::Put(kPresent, kDk, "other"));
  ExpectReported(planted.CheckGet(db_.get(), kPresent),
                 {"key 42", "read 'known'", "expected 'other'",
                  "--gtest_filter='ModelTest.WrongValueIsReported'"});
  ExpectReported(planted.CheckAll(db_.get()), {"key 42"});
}

TEST_F(ModelTest, WrongDeleteKeyIsReported) {
  KeyModel planted = model_;
  planted.Apply(ModelOp::Put(kPresent, kDk + 1, kValue));
  ExpectReported(planted.CheckGet(db_.get(), kPresent),
                 {"key 42", "dk=" + std::to_string(kDk),
                  "expected 'known'/dk=" + std::to_string(kDk + 1)});
  ExpectReported(planted.CheckScan(db_.get(), 0, kKeys), {"key 42"});
}

TEST_F(ModelTest, MissingKeyIsReported) {
  KeyModel planted = model_;
  planted.Apply(ModelOp::Put(kAbsent, kDk, kValue));
  ExpectReported(planted.CheckGet(db_.get(), kAbsent),
                 {"key 43", "read absent", "expected 'known'"});
  ExpectReported(planted.CheckAll(db_.get()), {"key 43"});
}

TEST_F(ModelTest, ExtraKeyIsReported) {
  KeyModel planted = model_;
  planted.Apply(ModelOp::Delete(kPresent));
  ExpectReported(planted.CheckGet(db_.get(), kPresent),
                 {"key 42", "read 'known'", "expected absent"});
  ExpectReported(planted.CheckScan(db_.get(), 0, kKeys),
                 {"scan [0, 200)", "key 42", "expected absent"});
}

TEST_F(ModelTest, ScanThatSkipsAKeyIsReported) {
  KeyModel planted = model_;
  planted.Apply(ModelOp::Put(kAbsent, kDk, kValue));
  ExpectReported(planted.CheckScan(db_.get(), 0, kKeys),
                 {"scan [0, 200)", "skipped key 43", "expected 'known'",
                  "a Get of the key reads absent"});
  // Outside the scanned range the same divergence is not the scan's.
  EXPECT_TRUE(planted.CheckScan(db_.get(), 0, kAbsent));
}

TEST_F(ModelTest, FailedWriteOutcomePassesOnlyInAllowAmbiguousMode) {
  // The engine rejected the put, but it landed anyway.
  const ModelOp landed = ModelOp::Put(kAbsent, kDk, "landed");
  ASSERT_TRUE(landed.IssueTo(db_.get()).ok());
  model_.Failed(landed);
  ExpectReported(model_.CheckGet(db_.get(), kAbsent),
                 {"key 43", "read 'landed'", "expected absent",
                  "not allowed"});
  EXPECT_TRUE(model_.CheckGet(db_.get(), kAbsent, KeyModel::kAllowAmbiguous));
  EXPECT_TRUE(model_.CheckAll(db_.get(), KeyModel::kAllowAmbiguous));

  // The engine rejected the range delete, and it did not land.
  model_.Failed(ModelOp::RangeDelete(kPresent, kPresent + 1));
  EXPECT_TRUE(model_.CheckGet(db_.get(), kPresent));
  EXPECT_TRUE(model_.CheckGet(db_.get(), kPresent, KeyModel::kAllowAmbiguous));
}

TEST_F(ModelTest, AcknowledgedWriteRevokesFailedOutcomes) {
  const ModelOp failed = ModelOp::Put(kAbsent, kDk, "maybe");
  model_.Failed(failed);
  ASSERT_TRUE(model_.Write(db_.get(), ModelOp::Put(kAbsent, kDk, "acked"))
                  .ok());
  EXPECT_TRUE(model_.CheckGet(db_.get(), kAbsent, KeyModel::kAllowAmbiguous));

  // Replay puts the acknowledged write after the failed one, so the failed
  // outcome can no longer be what a read returns.
  ASSERT_TRUE(failed.IssueTo(db_.get()).ok());
  ExpectReported(
      model_.CheckGet(db_.get(), kAbsent, KeyModel::kAllowAmbiguous),
      {"key 43", "read 'maybe'", "expected 'acked'"});
}

}  // namespace
}  // namespace lethe
