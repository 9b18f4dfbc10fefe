// Tests for the LSM machinery below the DB facade: version edits and
// application, the version set + MANIFEST, TTL allocation, the merging
// iterator, and the compaction picker's trigger/selection policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/lsm/bg_work.h"
#include "src/lsm/compaction.h"
#include "src/lsm/compaction_picker.h"
#include "src/lsm/merging_iterator.h"
#include "src/lsm/ttl.h"
#include "src/lsm/version.h"
#include "src/lsm/version_edit.h"
#include "src/lsm/version_set.h"
#include "src/workload/generator.h"

namespace lethe {
namespace {

using workload::EncodeKey;

FileMeta MakeFile(uint64_t number, uint64_t lo, uint64_t hi,
                  uint64_t run_id = 0) {
  FileMeta meta;
  meta.file_number = number;
  meta.file_size = 1000;
  meta.run_id = run_id;
  meta.num_entries = hi - lo + 1;
  meta.smallest_key = EncodeKey(lo);
  meta.largest_key = EncodeKey(hi);
  meta.num_pages = 4;
  return meta;
}

TEST(VersionEditTest, RoundTrip) {
  VersionEdit edit;
  edit.added_files.emplace_back(2, MakeFile(7, 0, 99));
  edit.removed_files.push_back({1, 3});
  edit.next_file_number = 55;
  edit.last_sequence = 1234;
  edit.wal_number = 9;
  edit.next_run_id = 4;
  edit.seq_time_checkpoints.emplace_back(100, 5000);

  std::string buf;
  edit.EncodeTo(&buf);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(buf)).ok());
  ASSERT_EQ(decoded.added_files.size(), 1u);
  EXPECT_EQ(decoded.added_files[0].first, 2);
  EXPECT_EQ(decoded.added_files[0].second.file_number, 7u);
  ASSERT_EQ(decoded.removed_files.size(), 1u);
  EXPECT_EQ(decoded.removed_files[0].file_number, 3u);
  EXPECT_EQ(*decoded.next_file_number, 55u);
  EXPECT_EQ(*decoded.last_sequence, 1234u);
  EXPECT_EQ(*decoded.wal_number, 9u);
  EXPECT_EQ(*decoded.next_run_id, 4u);
  ASSERT_EQ(decoded.seq_time_checkpoints.size(), 1u);
  EXPECT_EQ(decoded.seq_time_checkpoints[0].second, 5000u);
}

// The pending secondary-delete set round-trips, an empty set included (it
// clears), and a version inherits its base's set unless an edit sets one.
TEST(VersionEditTest, SecondaryDeletesRoundTripAndCarryOver) {
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(7, 0, 99));
  edit.secondary_deletes =
      SecondaryDeleteSet({{10, 20, 300}, {0, 50, UINT64_MAX - 1}});
  std::string buf;
  edit.EncodeTo(&buf);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(buf)).ok());
  ASSERT_TRUE(decoded.secondary_deletes.has_value());
  ASSERT_EQ(decoded.secondary_deletes->ranges().size(), 2u);
  EXPECT_EQ(decoded.secondary_deletes->ranges()[0].hi, 20u);
  EXPECT_EQ(decoded.secondary_deletes->ranges()[1].seq, UINT64_MAX - 1);

  Status s;
  auto v1 = Version::Apply(nullptr, decoded, &s);
  ASSERT_TRUE(s.ok());
  ASSERT_NE(v1->secondary_deletes(), nullptr);
  auto v2 = Version::Apply(v1.get(), VersionEdit(), &s);
  EXPECT_EQ(v2->secondary_deletes(), v1->secondary_deletes());

  VersionEdit clear;
  clear.secondary_deletes = SecondaryDeleteSet();
  buf.clear();
  clear.EncodeTo(&buf);
  ASSERT_TRUE(decoded.DecodeFrom(Slice(buf)).ok());
  ASSERT_TRUE(decoded.secondary_deletes.has_value());
  EXPECT_EQ(Version::Apply(v2.get(), decoded, &s)->secondary_deletes(),
            nullptr);
  // A count larger than the bytes that follow is damage, not an allocation.
  EXPECT_FALSE(decoded.DecodeFrom(Slice("\x09\xff\xff\xff\x0f", 5)).ok());
}

TEST(VersionEditTest, DecodeRejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\xff\xff garbage")).ok());
}

TEST(VersionTest, ApplyAddsAndRemoves) {
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(1, 0, 9));
  edit.added_files.emplace_back(0, MakeFile(2, 10, 19));
  edit.added_files.emplace_back(1, MakeFile(3, 0, 99));
  Status status;
  auto v1 = Version::Apply(nullptr, edit, &status);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(v1->TotalFiles(), 3u);
  EXPECT_EQ(v1->DeepestNonEmptyLevel(), 1);
  EXPECT_FALSE(v1->IsBottommost(0));
  EXPECT_TRUE(v1->IsBottommost(1));

  VersionEdit edit2;
  edit2.removed_files.push_back({0, 1});
  auto v2 = Version::Apply(v1.get(), edit2, &status);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(v2->TotalFiles(), 2u);
  // v1 unchanged (immutability).
  EXPECT_EQ(v1->TotalFiles(), 3u);
}

TEST(VersionTest, ApplyRejectsOverlapWithinRun) {
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(1, 0, 15));
  edit.added_files.emplace_back(0, MakeFile(2, 10, 19));
  Status status;
  Version::Apply(nullptr, edit, &status);
  EXPECT_TRUE(status.IsCorruption());
}

TEST(VersionTest, EqualBoundaryAllowed) {
  // A range-tombstone-extended largest key may equal the next smallest.
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(1, 0, 10));
  edit.added_files.emplace_back(0, MakeFile(2, 10, 19));
  Status status;
  auto v = Version::Apply(nullptr, edit, &status);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(v->TotalFiles(), 2u);
}

TEST(VersionTest, TieringRunsOrderedByRunId) {
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(1, 0, 9, /*run_id=*/3));
  edit.added_files.emplace_back(0, MakeFile(2, 0, 9, /*run_id=*/1));
  edit.added_files.emplace_back(0, MakeFile(3, 0, 9, /*run_id=*/2));
  Status status;
  auto v = Version::Apply(nullptr, edit, &status);
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(v->LevelRunCount(0), 3);
  EXPECT_EQ(v->levels()[0][0].run_id, 1u);
  EXPECT_EQ(v->levels()[0][2].run_id, 3u);
}

TEST(VersionTest, FindFileBinarySearch) {
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(1, 0, 9));
  edit.added_files.emplace_back(0, MakeFile(2, 20, 29));
  edit.added_files.emplace_back(0, MakeFile(3, 40, 49));
  Status status;
  auto v = Version::Apply(nullptr, edit, &status);
  const SortedRun& run = v->levels()[0][0];

  EXPECT_EQ(run.FindFile(Slice(EncodeKey(5))), 0);
  EXPECT_EQ(run.FindFile(Slice(EncodeKey(25))), 1);
  EXPECT_EQ(run.FindFile(Slice(EncodeKey(49))), 2);
  EXPECT_EQ(run.FindFile(Slice(EncodeKey(15))), -1);  // gap
  EXPECT_EQ(run.FindFile(Slice(EncodeKey(99))), -1);  // beyond
}

TEST(VersionTest, OverlappingFilesInclusiveBounds) {
  VersionEdit edit;
  edit.added_files.emplace_back(0, MakeFile(1, 0, 9));
  edit.added_files.emplace_back(0, MakeFile(2, 20, 29));
  Status status;
  auto v = Version::Apply(nullptr, edit, &status);

  auto overlap =
      v->OverlappingFiles(0, Slice(EncodeKey(9)), Slice(EncodeKey(20)));
  EXPECT_EQ(overlap.size(), 2u);
  overlap = v->OverlappingFiles(0, Slice(EncodeKey(10)), Slice(EncodeKey(19)));
  EXPECT_TRUE(overlap.empty());
}

TEST(TtlTest, CumulativeAllocationSumsToDth) {
  const uint64_t dth = 1000000;
  auto ttls = ComputeCumulativeTtls(dth, 10, 3);
  ASSERT_EQ(ttls.size(), 3u);
  EXPECT_EQ(ttls.back(), dth);
  // Geometric growth: d1 : d2 : d3 = 1 : 10 : 100 with sum Dth.
  double d1 = static_cast<double>(ttls[0]);
  double d2 = static_cast<double>(ttls[1] - ttls[0]);
  double d3 = static_cast<double>(ttls[2] - ttls[1]);
  EXPECT_NEAR(d2 / d1, 10.0, 0.1);
  EXPECT_NEAR(d3 / d2, 10.0, 0.1);
  EXPECT_NEAR(d1 + d2 + d3, static_cast<double>(dth), 2.0);
}

TEST(TtlTest, SingleLevelGetsWholeBudget) {
  auto ttls = ComputeCumulativeTtls(500, 10, 1);
  ASSERT_EQ(ttls.size(), 1u);
  EXPECT_EQ(ttls[0], 500u);
}

TEST(TtlTest, DisabledWhenDthZero) {
  EXPECT_TRUE(ComputeCumulativeTtls(0, 10, 3).empty());
}

// Simple vector-backed iterator for merging tests.
class VecIterator final : public InternalIterator {
 public:
  explicit VecIterator(std::vector<ParsedEntry> entries)
      : entries_(std::move(entries)) {}
  bool Valid() const override { return pos_ < entries_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void Seek(const Slice& target) override {
    for (pos_ = 0; pos_ < entries_.size(); pos_++) {
      if (entries_[pos_].user_key.compare(target) >= 0) {
        break;
      }
    }
  }
  void Next() override { pos_++; }
  const ParsedEntry& entry() const override { return entries_[pos_]; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<ParsedEntry> entries_;
  size_t pos_ = 0;
};

TEST(MergingIteratorTest, MergesSortedStreamsNewestFirst) {
  // Backing storage must outlive the entries.
  static const std::string k1 = "a", k2 = "b", k3 = "c";
  ParsedEntry a5{Slice(k1), 0, 5, ValueType::kValue, Slice("a5")};
  ParsedEntry a3{Slice(k1), 0, 3, ValueType::kValue, Slice("a3")};
  ParsedEntry b4{Slice(k2), 0, 4, ValueType::kValue, Slice("b4")};
  ParsedEntry c1{Slice(k3), 0, 1, ValueType::kValue, Slice("c1")};

  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(std::make_unique<VecIterator>(
      std::vector<ParsedEntry>{a3, c1}));
  children.push_back(std::make_unique<VecIterator>(
      std::vector<ParsedEntry>{a5, b4}));
  auto merged = NewMergingIterator(std::move(children));

  std::vector<std::pair<std::string, SequenceNumber>> seen;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    seen.emplace_back(merged->entry().user_key.ToString(),
                      merged->entry().seq);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<std::string, SequenceNumber>{"a", 5}));
  EXPECT_EQ(seen[1], (std::pair<std::string, SequenceNumber>{"a", 3}));
  EXPECT_EQ(seen[2], (std::pair<std::string, SequenceNumber>{"b", 4}));
  EXPECT_EQ(seen[3], (std::pair<std::string, SequenceNumber>{"c", 1}));
}

TEST(MergingIteratorTest, SeekAcrossChildren) {
  static const std::string k1 = "a", k2 = "m", k3 = "z";
  ParsedEntry a{Slice(k1), 0, 1, ValueType::kValue, Slice()};
  ParsedEntry m{Slice(k2), 0, 2, ValueType::kValue, Slice()};
  ParsedEntry z{Slice(k3), 0, 3, ValueType::kValue, Slice()};
  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(
      std::make_unique<VecIterator>(std::vector<ParsedEntry>{a, z}));
  children.push_back(
      std::make_unique<VecIterator>(std::vector<ParsedEntry>{m}));
  auto merged = NewMergingIterator(std::move(children));
  merged->Seek(Slice("b"));
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->entry().user_key.ToString(), "m");
}

TEST(KeyInterpolationTest, OverlapFraction) {
  EXPECT_DOUBLE_EQ(
      RangeOverlapFraction(EncodeKey(0), EncodeKey(100), EncodeKey(0),
                           EncodeKey(100)),
      1.0);
  // Hex-digit byte encoding is mildly non-linear in ASCII space, so the
  // interpolation is an estimate; it only steers file selection.
  EXPECT_NEAR(RangeOverlapFraction(EncodeKey(0), EncodeKey(100), EncodeKey(25),
                                   EncodeKey(75)),
              0.5, 0.1);
  EXPECT_DOUBLE_EQ(RangeOverlapFraction(EncodeKey(0), EncodeKey(100),
                                        EncodeKey(200), EncodeKey(300)),
                   0.0);
}

class PickerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.clock = &clock_;
    options_.write_buffer_bytes = 1000;
    options_.size_ratio = 10;
    options_ = options_.WithDefaults();
    versions_ = std::make_unique<VersionSet>(options_, "db");
    ASSERT_TRUE(env_->CreateDirIfMissing("db").ok());
    ASSERT_TRUE(versions_->Recover().ok());
    picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());
  }

  std::shared_ptr<Version> Build(const VersionEdit& edit,
                                 const Version* base = nullptr) {
    Status status;
    auto v = Version::Apply(base, edit, &status);
    EXPECT_TRUE(status.ok());
    return v;
  }

  std::unique_ptr<Env> env_;
  LogicalClock clock_;
  Options options_;
  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<CompactionPicker> picker_;
};

TEST_F(PickerTest, NoTriggerOnEmptyOrSmallTree) {
  VersionEdit edit;
  FileMeta f = MakeFile(1, 0, 9);
  f.file_size = 100;  // well under the 10k capacity of level 0
  edit.added_files.emplace_back(0, f);
  auto v = Build(edit);
  CompactionPick pick = picker_->Pick(*v, 0);
  EXPECT_FALSE(pick.valid());
}

TEST_F(PickerTest, SaturationTriggersOnOversizedLevel) {
  VersionEdit edit;
  FileMeta f1 = MakeFile(1, 0, 9);
  f1.file_size = 6000;
  FileMeta f2 = MakeFile(2, 10, 19);
  f2.file_size = 6000;  // level 0 capacity = 1000*10 = 10000 < 12000
  edit.added_files.emplace_back(0, f1);
  edit.added_files.emplace_back(0, f2);
  auto v = Build(edit);
  CompactionPick pick = picker_->Pick(*v, 0);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.trigger, CompactionPick::Trigger::kSaturation);
  EXPECT_EQ(pick.level, 0);
  EXPECT_EQ(pick.inputs.size(), 1u);
}

TEST_F(PickerTest, MinOverlapPrefersCheapestFile) {
  VersionEdit edit;
  FileMeta f1 = MakeFile(1, 0, 9);
  f1.file_size = 6000;
  FileMeta f2 = MakeFile(2, 10, 19);
  f2.file_size = 6000;
  // Level 1 holds a big file overlapping f1 only.
  FileMeta target = MakeFile(3, 0, 9);
  target.file_size = 5000;
  edit.added_files.emplace_back(0, f1);
  edit.added_files.emplace_back(0, f2);
  edit.added_files.emplace_back(1, target);
  auto v = Build(edit);
  CompactionPick pick = picker_->Pick(*v, 0);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.inputs[0]->file_number, 2u);  // zero overlap wins
}

TEST_F(PickerTest, MaxTombstonesPolicyPrefersDeleteHeavyFile) {
  options_.file_picking = FilePickingPolicy::kMaxTombstones;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());

  VersionEdit edit;
  FileMeta f1 = MakeFile(1, 0, 9);
  f1.file_size = 6000;
  f1.num_point_tombstones = 100;
  f1.oldest_tombstone_time = 1;
  FileMeta f2 = MakeFile(2, 10, 19);
  f2.file_size = 6000;
  f2.num_point_tombstones = 5;
  f2.oldest_tombstone_time = 1;
  edit.added_files.emplace_back(0, f1);
  edit.added_files.emplace_back(0, f2);
  auto v = Build(edit);
  CompactionPick pick = picker_->Pick(*v, 0);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.inputs[0]->file_number, 1u);
}

TEST_F(PickerTest, TtlExpiryBeatsSaturation) {
  options_.delete_persistence_threshold_micros = 1000000;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());

  VersionEdit edit;
  // Level 0 badly saturated but tombstone-free.
  FileMeta fat = MakeFile(1, 0, 9);
  fat.file_size = 50000;
  edit.added_files.emplace_back(0, fat);
  // Level 1 under capacity, with an expired tombstone file.
  FileMeta expired = MakeFile(2, 100, 199);
  expired.file_size = 100;
  expired.num_point_tombstones = 1;
  expired.oldest_tombstone_time = 0;
  edit.added_files.emplace_back(1, expired);
  auto v = Build(edit);

  // At now = Dth+1 the level-1 cumulative TTL (= Dth for the deepest
  // level) is exhausted.
  CompactionPick pick = picker_->Pick(*v, 1000001);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.trigger, CompactionPick::Trigger::kTtlExpiry);
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(pick.inputs[0]->file_number, 2u);
}

TEST_F(PickerTest, NoTtlTriggerBeforeExpiry) {
  options_.delete_persistence_threshold_micros = 1000000;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());

  VersionEdit edit;
  FileMeta f = MakeFile(1, 0, 9);
  f.file_size = 100;
  f.num_point_tombstones = 1;
  f.oldest_tombstone_time = 0;
  edit.added_files.emplace_back(0, f);
  auto v = Build(edit);

  // Single disk level → cumulative TTL = Dth.
  EXPECT_FALSE(picker_->Pick(*v, 999999).valid());
  EXPECT_FALSE(picker_->Pick(*v, 1000000).valid());  // at the bound: not yet
  EXPECT_TRUE(picker_->Pick(*v, 1000001).valid());
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 0), 1000000u);
}

// Each level's file fires strictly past its own cumulative TTL, and the
// deepest level's TTL is Dth exactly.
TEST_F(PickerTest, TtlBoundPerLevel) {
  options_.delete_persistence_threshold_micros = 1000000;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());

  VersionEdit edit;
  FileMeta shallow = MakeFile(1, 0, 9);
  shallow.file_size = 100;
  shallow.num_point_tombstones = 1;
  shallow.oldest_tombstone_time = 0;
  FileMeta deep = MakeFile(2, 0, 9);
  deep.file_size = 100;
  deep.num_point_tombstones = 1;
  deep.oldest_tombstone_time = 0;
  edit.added_files.emplace_back(0, shallow);
  edit.added_files.emplace_back(2, deep);
  auto v = Build(edit);

  const std::vector<uint64_t> ttls = picker_->CumulativeTtls(*v);
  ASSERT_EQ(ttls.size(), 3u);
  EXPECT_EQ(ttls[2], 1000000u);
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 0), ttls[0]);
  EXPECT_FALSE(picker_->Pick(*v, ttls[0]).valid());
  CompactionPick pick = picker_->Pick(*v, ttls[0] + 1);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.level, 0);

  // Alone at level 2, the deep file keeps its Dth bound.
  VersionEdit drop_shallow;
  drop_shallow.removed_files.push_back({0, 1});
  auto only_deep = Build(drop_shallow, v.get());
  EXPECT_EQ(picker_->EarliestTtlExpiry(*only_deep, 0), 1000000u);
  EXPECT_FALSE(picker_->Pick(*only_deep, 999999).valid());
  EXPECT_FALSE(picker_->Pick(*only_deep, 1000000).valid());
  pick = picker_->Pick(*only_deep, 1000001);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.level, 2);
  EXPECT_EQ(pick.inputs[0]->file_number, 2u);
}

// Under FADE, a file reserved for a pending flush is passed over by the TTL
// pick until its oldest tombstone has used kReservationReleaseShare of Dth;
// one with no tombstone (here: a due file) waits for the flush.
TEST_F(PickerTest, ReservedFileWaitsForTheReleaseBound) {
  options_.delete_persistence_threshold_micros = 1000000;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());
  const uint64_t bound = picker_->ReservationBound();
  ASSERT_EQ(bound, 600000u);

  VersionEdit edit;
  FileMeta shallow = MakeFile(1, 0, 9);
  shallow.file_size = 100;
  shallow.num_point_tombstones = 1;
  shallow.oldest_tombstone_time = 0;
  FileMeta due = MakeFile(2, 20, 29);
  due.file_size = 100;
  due.expiry_due = 10;
  FileMeta deep = MakeFile(3, 0, 9);
  deep.file_size = 100;
  edit.added_files.emplace_back(0, shallow);
  edit.added_files.emplace_back(0, due);
  edit.added_files.emplace_back(2, deep);
  auto v = Build(edit);
  const std::vector<uint64_t> ttls = picker_->CumulativeTtls(*v);
  ASSERT_LT(ttls[0], bound);

  const std::set<uint64_t> reserved = {1, 2};
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 0, {}, &reserved), bound);
  CompactionPick pick = picker_->Pick(*v, ttls[0] + 1, nullptr, {}, &reserved);
  EXPECT_FALSE(pick.valid());
  EXPECT_TRUE(pick.ttl_held);
  pick = picker_->Pick(*v, bound, nullptr, {}, &reserved);
  EXPECT_FALSE(pick.valid());
  pick = picker_->Pick(*v, bound + 1, nullptr, {}, &reserved);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.inputs[0]->file_number, 1u);
  EXPECT_TRUE(pick.ttl_held);  // the due file still waits

  // Unreserved, the due file goes first (the earlier deadline).
  pick = picker_->Pick(*v, ttls[0] + 1);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.inputs[0]->file_number, 2u);
  EXPECT_FALSE(pick.ttl_held);

  // FADE off: nothing is reserved; the due file goes at its due time.
  options_.delete_persistence_threshold_micros = 0;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());
  EXPECT_EQ(picker_->ReservationBound(), UINT64_MAX);
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 0, {}, &reserved), 10u);
  pick = picker_->Pick(*v, 11, nullptr, {}, &reserved);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.inputs[0]->file_number, 2u);
  EXPECT_FALSE(pick.ttl_held);
}

// An expiry due time fires the kTtlExpiry trigger with FADE off, on the
// due file alone, unless the oldest snapshot is older than the file's
// newest entry or was created before the due time.
TEST_F(PickerTest, ExpiryDueFiresWithoutFade) {
  VersionEdit edit;
  FileMeta due = MakeFile(1, 0, 9);
  due.file_size = 100;
  due.largest_seq = 10;
  due.expiry_due = 500;
  FileMeta plain = MakeFile(2, 10, 19);
  plain.file_size = 100;
  edit.added_files.emplace_back(0, due);
  edit.added_files.emplace_back(0, plain);
  auto v = Build(edit);

  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 0), 500u);
  EXPECT_FALSE(picker_->Pick(*v, 500).valid());
  CompactionPick pick = picker_->Pick(*v, 501);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.trigger, CompactionPick::Trigger::kTtlExpiry);
  ASSERT_EQ(pick.inputs.size(), 1u);
  EXPECT_EQ(pick.inputs[0]->file_number, 1u);

  const OldestSnapshot older_than_file{9, 600};
  const OldestSnapshot before_due{10, 499};
  const OldestSnapshot after_due{10, 500};
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 501, older_than_file),
            UINT64_MAX);
  EXPECT_FALSE(picker_->Pick(*v, 501, nullptr, older_than_file).valid());
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 501, before_due), UINT64_MAX);
  EXPECT_FALSE(picker_->Pick(*v, 501, nullptr, before_due).valid());
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 501, after_due), 500u);
  EXPECT_TRUE(picker_->Pick(*v, 501, nullptr, after_due).valid());

  // A due time still ahead stays armed whatever snapshot is live now; the
  // pick applies the guard once it has passed.
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 499, older_than_file), 500u);
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 499, before_due), 500u);
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 500, before_due), UINT64_MAX);
}

TEST_F(PickerTest, EarliestExpiryInfiniteWithoutFade) {
  VersionEdit edit;
  FileMeta f = MakeFile(1, 0, 9);
  f.num_point_tombstones = 1;
  f.oldest_tombstone_time = 0;
  edit.added_files.emplace_back(0, f);
  auto v = Build(edit);
  EXPECT_EQ(picker_->EarliestTtlExpiry(*v, 0), UINT64_MAX);
}

TEST_F(PickerTest, TieringTriggersOnRunCount) {
  options_.compaction_style = CompactionStyle::kTiering;
  options_.size_ratio = 3;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());

  VersionEdit edit;
  for (uint64_t r = 1; r <= 3; r++) {
    edit.added_files.emplace_back(0, MakeFile(r, 0, 9, r));
  }
  auto v = Build(edit);
  CompactionPick pick = picker_->Pick(*v, 0);
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(pick.level, 0);
  EXPECT_EQ(pick.inputs.size(), 3u);  // all runs merge together
}

TEST(VersionSetTest, RecoverPersistsAcrossReopen) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options = options.WithDefaults();
  ASSERT_TRUE(env->CreateDirIfMissing("db").ok());

  {
    VersionSet versions(options, "db");
    ASSERT_TRUE(versions.Recover().ok());
    VersionEdit edit;
    edit.added_files.emplace_back(1, MakeFile(12, 5, 50));
    versions.AddSeqTimeCheckpoint(1, 999, &edit);
    versions.SetLastSequence(77);
    ASSERT_TRUE(versions.LogAndApply(&edit, kMaxSequenceNumber).ok());
  }
  {
    VersionSet versions(options, "db");
    ASSERT_TRUE(versions.Recover().ok());
    auto v = versions.current();
    ASSERT_EQ(v->TotalFiles(), 1u);
    EXPECT_EQ(v->levels()[1][0].files[0]->file_number, 12u);
    EXPECT_EQ(versions.LastSequence(), 77u);
    EXPECT_EQ(versions.TimeOfSeq(1), 999u);
    EXPECT_EQ(versions.TimeOfSeq(100), 999u);
    EXPECT_EQ(versions.TimeOfSeq(0), 0u);
  }
}

TEST(VersionSetTest, MissingDbRequiresCreateFlag) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.create_if_missing = false;
  options = options.WithDefaults();
  VersionSet versions(options, "nonexistent");
  EXPECT_TRUE(versions.Recover().IsNotFound());
}

TEST(VersionSetTest, InFlightRegistryConflictRules) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options = options.WithDefaults();
  VersionSet versions(options, "db");
  ASSERT_TRUE(env->CreateDirIfMissing("db").ok());
  ASSERT_TRUE(versions.Recover().ok());

  // Compaction A: consumes files 1 and 2, outputs [10, 30] into level 1.
  JobFootprint a;
  a.input_files = {1, 2};
  a.output_level = 1;
  a.output_begin = EncodeKey(10);
  a.output_end = EncodeKey(30);
  ASSERT_FALSE(versions.ConflictsWithInFlight(a));
  uint64_t a_id = versions.RegisterInFlightJob(a);
  EXPECT_EQ(versions.InFlightJobCount(), 1u);
  EXPECT_EQ(versions.InFlightInputFiles().count(1), 1u);

  // Input-file claims are exclusive.
  JobFootprint shares_input;
  shares_input.input_files = {2, 3};
  shares_input.output_level = 2;
  shares_input.output_begin = EncodeKey(90);
  shares_input.output_end = EncodeKey(95);
  EXPECT_TRUE(versions.ConflictsWithInFlight(shares_input));

  // Overlapping output ranges into the same level conflict (inclusive
  // bounds: touching at a boundary key counts as overlap).
  JobFootprint overlapping_output;
  overlapping_output.input_files = {4};
  overlapping_output.output_level = 1;
  overlapping_output.output_begin = EncodeKey(30);
  overlapping_output.output_end = EncodeKey(50);
  EXPECT_TRUE(versions.ConflictsWithInFlight(overlapping_output));

  // The same range one level down is fine, as is a disjoint range at the
  // same level.
  overlapping_output.output_level = 2;
  EXPECT_FALSE(versions.ConflictsWithInFlight(overlapping_output));
  JobFootprint disjoint;
  disjoint.input_files = {5};
  disjoint.output_level = 1;
  disjoint.output_begin = EncodeKey(40);
  disjoint.output_end = EncodeKey(60);
  EXPECT_FALSE(versions.ConflictsWithInFlight(disjoint));

  // Flushes obey the output-span rule like any merge: a second flush with
  // a disjoint L0 span does not conflict, an overlapping one does.
  JobFootprint flush;
  flush.output_level = 0;
  flush.output_begin = EncodeKey(100);
  flush.output_end = EncodeKey(200);
  ASSERT_FALSE(versions.ConflictsWithInFlight(flush));
  uint64_t flush_id = versions.RegisterInFlightJob(flush);
  JobFootprint flush2 = flush;
  flush2.output_begin = EncodeKey(900);
  flush2.output_end = EncodeKey(950);
  EXPECT_FALSE(versions.ConflictsWithInFlight(flush2));
  flush2.output_begin = EncodeKey(150);
  EXPECT_TRUE(versions.ConflictsWithInFlight(flush2));

  // Exclusive jobs conflict with everything, both directions.
  JobFootprint exclusive;
  exclusive.exclusive = true;
  EXPECT_TRUE(versions.ConflictsWithInFlight(exclusive));
  versions.UnregisterInFlightJob(a_id);
  versions.UnregisterInFlightJob(flush_id);
  EXPECT_EQ(versions.InFlightJobCount(), 0u);
  EXPECT_TRUE(versions.InFlightInputFiles().empty());
  ASSERT_FALSE(versions.ConflictsWithInFlight(exclusive));
  uint64_t ex_id = versions.RegisterInFlightJob(exclusive);
  EXPECT_TRUE(versions.ConflictsWithInFlight(disjoint));
  versions.UnregisterInFlightJob(ex_id);
}

TEST(PickerTest2, PickSkipsClaimedFiles) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_bytes = 1000;
  options.size_ratio = 10;
  options = options.WithDefaults();
  VersionSet versions(options, "db");
  ASSERT_TRUE(env->CreateDirIfMissing("db").ok());
  ASSERT_TRUE(versions.Recover().ok());
  CompactionPicker picker(options, &versions);

  VersionEdit edit;
  FileMeta f1 = MakeFile(1, 0, 9);
  f1.file_size = 6000;
  FileMeta f2 = MakeFile(2, 10, 19);
  f2.file_size = 6000;
  edit.added_files.emplace_back(0, f1);
  edit.added_files.emplace_back(0, f2);
  Status status;
  auto v = Version::Apply(nullptr, edit, &status);
  ASSERT_TRUE(status.ok());

  // Unclaimed: some file is picked. Claim it: the picker takes the other.
  CompactionPick first = picker.Pick(*v, 0);
  ASSERT_TRUE(first.valid());
  std::set<uint64_t> claimed = {first.inputs[0]->file_number};
  CompactionPick second = picker.Pick(*v, 0, &claimed);
  ASSERT_TRUE(second.valid());
  EXPECT_NE(second.inputs[0]->file_number, first.inputs[0]->file_number);

  // Both claimed: nothing left to pick.
  claimed.insert(second.inputs[0]->file_number);
  EXPECT_FALSE(picker.Pick(*v, 0, &claimed).valid());
}

TEST(BackgroundSchedulerTest, PoolRunsJobsConcurrently) {
  Statistics stats;
  BackgroundScheduler scheduler(4, &stats);
  EXPECT_EQ(scheduler.num_threads(), 4);

  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  int peak = 0;
  bool release = false;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(scheduler.Schedule(
        BackgroundScheduler::Priority::kSpaceDrivenCompaction, [&] {
          std::unique_lock<std::mutex> lock(mu);
          running++;
          peak = std::max(peak, running);
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
          running--;
        }));
  }
  {
    // All four jobs must be in flight at once: the pool, not a single
    // worker, drains the queue.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return running == 4; }));
    release = true;
  }
  cv.notify_all();
  scheduler.Shutdown();
  EXPECT_EQ(peak, 4);
  EXPECT_EQ(stats.bg_jobs_dispatched.load(), 4u);
  for (const auto& gauge : stats.bg_jobs_active) {
    EXPECT_EQ(gauge.load(), 0u);  // all gauges returned to zero
  }
}

TEST(BackgroundSchedulerTest, PauseIsABarrierAcrossThePool) {
  BackgroundScheduler scheduler(4);
  std::atomic<int> completed{0};
  std::atomic<int> started{0};
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(scheduler.Schedule(
        BackgroundScheduler::Priority::kFlush, [&] {
          started.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          completed.fetch_add(1);
        }));
  }
  while (started.load() == 0) {
    std::this_thread::yield();
  }
  // Pause returns only once every in-flight job finished; queued-but-
  // unstarted jobs stay queued.
  scheduler.TEST_Pause();
  const int after_pause = completed.load();
  EXPECT_EQ(started.load(), after_pause);  // nothing is mid-job
  ASSERT_TRUE(scheduler.Schedule(BackgroundScheduler::Priority::kFlush,
                                 [&] { completed.fetch_add(1); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(completed.load(), after_pause);  // frozen: nothing ran
  scheduler.TEST_Resume();
  scheduler.Shutdown();  // runs or discards the rest; no hang
}

// ---- subcompaction boundaries ----------------------------------------------

class SubcompactionBoundaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_ = options_.WithDefaults();
    versions_ = std::make_unique<VersionSet>(options_, "db");
    picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());
  }

  std::shared_ptr<FileMeta> File(uint64_t number, uint64_t lo, uint64_t hi,
                                 uint64_t size) {
    auto meta = std::make_shared<FileMeta>(MakeFile(number, lo, hi));
    meta->file_size = size;
    return meta;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<CompactionPicker> picker_;
};

TEST_F(SubcompactionBoundaryTest, SingleFileCollapsesToNoSplit) {
  // One input file: splitting buys nothing, K collapses to 1.
  std::vector<std::shared_ptr<FileMeta>> one = {File(1, 0, 1000, 4096)};
  EXPECT_TRUE(picker_->ComputeSubcompactionBoundaries(one, 4).empty());

  // max_partitions 1 never splits either.
  std::vector<std::shared_ptr<FileMeta>> two = {File(1, 0, 500, 4096),
                                                File(2, 500, 1000, 4096)};
  EXPECT_TRUE(picker_->ComputeSubcompactionBoundaries(two, 1).empty());
}

TEST_F(SubcompactionBoundaryTest, EqualFilesSplitAtTheJoin) {
  std::vector<std::shared_ptr<FileMeta>> inputs = {File(1, 0, 100, 8192),
                                                   File(2, 100, 200, 8192)};
  std::vector<std::string> boundaries =
      picker_->ComputeSubcompactionBoundaries(inputs, 2);
  ASSERT_EQ(boundaries.size(), 1u);
  // Equal byte masses on both sides of key 100: the quantile lands at the
  // join (the synthesized boundary may extend key 100 with suffix bytes,
  // which still partitions strictly between user keys 100 and 101).
  EXPECT_GT(Slice(boundaries[0]).compare(Slice(EncodeKey(99))), 0);
  EXPECT_LT(Slice(boundaries[0]).compare(Slice(EncodeKey(101))), 0);
}

TEST_F(SubcompactionBoundaryTest, BoundariesAreOrderedAndInsideTheSpan) {
  // A heavy file overlapping a light one: every boundary must stay strictly
  // inside the combined span and strictly increase, and most of the byte
  // mass (the heavy file) must end up subdivided.
  std::vector<std::shared_ptr<FileMeta>> inputs = {
      File(1, 0, 100, 4096), File(2, 100, 500, 3 * 4096)};
  std::vector<std::string> boundaries =
      picker_->ComputeSubcompactionBoundaries(inputs, 4);
  ASSERT_GE(boundaries.size(), 2u);
  ASSERT_LE(boundaries.size(), 3u);
  std::string prev = EncodeKey(0);
  for (const std::string& b : boundaries) {
    EXPECT_GT(Slice(b).compare(Slice(prev)), 0);
    EXPECT_LE(Slice(b).compare(Slice(EncodeKey(500))), 0);
    prev = b;
  }
  // With 3/4 of the mass in [100, 500], at least one interior boundary
  // falls inside the heavy file's span.
  EXPECT_GT(Slice(boundaries.back()).compare(Slice(EncodeKey(100))), 0);
}

TEST_F(SubcompactionBoundaryTest, DegenerateSpanDoesNotSplit) {
  // Both files cover the same single key: no interior boundary exists.
  std::vector<std::shared_ptr<FileMeta>> inputs = {File(1, 7, 7, 4096),
                                                   File(2, 7, 7, 4096)};
  EXPECT_TRUE(picker_->ComputeSubcompactionBoundaries(inputs, 4).empty());
}

/// Boundaries from *real* files: fences sampled from the on-disk tile
/// structure, so key spaces the raw-byte interpolation mismodels (hex-ASCII
/// and its '9'→'a' gap) still partition evenly.
class FenceSampledBoundaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.table.page_size_bytes = 256;
    options_.table.entries_per_page = 8;
    options_.table.pages_per_tile = 2;
    options_ = options_.WithDefaults();
    ASSERT_TRUE(env_->CreateDirIfMissing("fdb").ok());
    versions_ = std::make_unique<VersionSet>(options_, "fdb");
    picker_ = std::make_unique<CompactionPicker>(options_, versions_.get());
  }

  static std::string HexKey(uint64_t k) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%05llx", static_cast<unsigned long long>(k));
    return buf;
  }

  /// Builds a real table holding HexKey(k) for every k in `keys`.
  std::shared_ptr<FileMeta> BuildHexFile(const std::vector<uint64_t>& keys) {
    const uint64_t number = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(options_.env
                    ->NewWritableFile(TableFileName("fdb", number), &file)
                    .ok());
    SSTableBuilder builder(options_.table, file.get());
    for (uint64_t k : keys) {
      std::string key = HexKey(k);
      ParsedEntry entry;
      entry.user_key = Slice(key);
      entry.delete_key = k;
      entry.seq = k + 1;
      entry.type = ValueType::kValue;
      entry.value = Slice("v");
      builder.Add(entry);
    }
    TableProperties props;
    EXPECT_TRUE(builder.Finish(&props).ok());
    EXPECT_TRUE(file->Sync().ok());
    EXPECT_TRUE(file->Close().ok());
    auto meta = std::make_shared<FileMeta>();
    meta->file_number = number;
    meta->file_size = props.file_size;
    meta->num_entries = props.num_entries;
    meta->smallest_key = props.smallest_key;
    meta->largest_key = props.largest_key;
    meta->num_pages = props.num_pages;
    return meta;
  }

  /// Max partition weight over the ideal (total / K), given boundary keys.
  static double Skew(const std::vector<uint64_t>& all_keys,
                     const std::vector<std::string>& boundaries, int k) {
    std::vector<size_t> counts(boundaries.size() + 1, 0);
    for (uint64_t key : all_keys) {
      const std::string hex = HexKey(key);
      size_t partition = 0;
      while (partition < boundaries.size() &&
             Slice(hex).compare(Slice(boundaries[partition])) >= 0) {
        partition++;
      }
      counts[partition]++;
    }
    const double ideal = static_cast<double>(all_keys.size()) / k;
    size_t max_count = 0;
    for (size_t c : counts) {
      max_count = std::max(max_count, c);
    }
    return static_cast<double>(max_count) / ideal;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<CompactionPicker> picker_;
};

TEST_F(FenceSampledBoundaryTest, HexKeySpacePartitionsEvenly) {
  // Uniform hex-ASCII keys. Raw-byte interpolation sees the unused codes
  // between '9' (0x39) and 'a' (0x61) as populated key space and lands its
  // quantiles off-mass (~1.3x skew); fence samples come from the real
  // distribution and stay near-balanced.
  std::vector<uint64_t> evens, odds, all;
  for (uint64_t k = 0; k < 4096; k++) {
    (k % 2 == 0 ? evens : odds).push_back(k);
    all.push_back(k);
  }
  std::vector<std::shared_ptr<FileMeta>> inputs = {BuildHexFile(evens),
                                                   BuildHexFile(odds)};
  constexpr int kPartitions = 4;
  std::vector<std::string> boundaries =
      picker_->ComputeSubcompactionBoundaries(inputs, kPartitions);
  ASSERT_EQ(boundaries.size(), static_cast<size_t>(kPartitions - 1));

  // Ordered, strictly inside the span.
  std::string prev = inputs[0]->smallest_key;
  for (const std::string& b : boundaries) {
    EXPECT_GT(Slice(b).compare(Slice(prev)), 0);
    EXPECT_LE(Slice(b).compare(Slice(inputs[1]->largest_key)), 0);
    prev = b;
  }

  const double skew = Skew(all, boundaries, kPartitions);
  EXPECT_LT(skew, 1.15) << "fence-sampled partitions should be near-even";
}

TEST_F(FenceSampledBoundaryTest, MemtablePseudoFileBlendsWithFences) {
  // A leveled flush offers the memtable as a fence-less pseudo-file
  // (file_number 0) next to real overlapping files; the sampled model must
  // still split, and still evenly — the real files carry the mass.
  std::vector<uint64_t> evens, all;
  for (uint64_t k = 0; k < 4096; k++) {
    if (k % 2 == 0) {
      evens.push_back(k);
    }
    all.push_back(k);
  }
  auto disk = BuildHexFile(evens);
  auto mem_span = std::make_shared<FileMeta>();
  mem_span->smallest_key = HexKey(1);
  mem_span->largest_key = HexKey(4095);
  mem_span->file_size = disk->file_size / 8;  // one buffer vs a big level
  std::vector<std::shared_ptr<FileMeta>> inputs = {disk, mem_span};

  constexpr int kPartitions = 4;
  std::vector<std::string> boundaries =
      picker_->ComputeSubcompactionBoundaries(inputs, kPartitions);
  ASSERT_GE(boundaries.size(), 2u);
  EXPECT_LT(Skew(all, boundaries, kPartitions), 1.25);
}

TEST_F(FenceSampledBoundaryTest, UnreadableFilesFallBackToInterpolation) {
  // Metas that point at no real file (the unit-test idiom, but also any
  // open failure) must not split via fences; the interpolation fallback
  // still produces the old behavior.
  auto fake = [](uint64_t number, uint64_t lo, uint64_t hi) {
    auto meta = std::make_shared<FileMeta>(MakeFile(number, lo, hi));
    meta->file_size = 8192;
    return meta;
  };
  std::vector<std::shared_ptr<FileMeta>> inputs = {fake(901, 0, 100),
                                                   fake(902, 100, 200)};
  std::vector<std::string> boundaries =
      picker_->ComputeSubcompactionBoundaries(inputs, 2);
  ASSERT_EQ(boundaries.size(), 1u);
  EXPECT_GT(Slice(boundaries[0]).compare(Slice(EncodeKey(99))), 0);
  EXPECT_LT(Slice(boundaries[0]).compare(Slice(EncodeKey(101))), 0);
}

// ---- partitioned merge execution -------------------------------------------

class MergeExecutorPartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.table.page_size_bytes = 1024;
    options_.table.entries_per_page = 8;
    options_ = options_.WithDefaults();
    ASSERT_TRUE(env_->CreateDirIfMissing("mdb").ok());
    versions_ = std::make_unique<VersionSet>(options_, "mdb");
    ASSERT_TRUE(versions_->Recover().ok());
  }

  /// Builds a table holding keys [lo, hi) (value "v<k>", seq = base_seq + k)
  /// plus the given range tombstones; returns its FileMeta.
  std::shared_ptr<FileMeta> BuildTable(uint64_t lo, uint64_t hi,
                                       SequenceNumber base_seq,
                                       std::vector<RangeTombstone> rts = {}) {
    const uint64_t number = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(options_.env
                    ->NewWritableFile(TableFileName("mdb", number), &file)
                    .ok());
    SSTableBuilder builder(options_.table, file.get());
    std::string key, value;
    for (uint64_t k = lo; k < hi; k++) {
      key = EncodeKey(k);
      value = "v" + std::to_string(k);
      ParsedEntry entry;
      entry.user_key = Slice(key);
      entry.delete_key = k;
      entry.seq = base_seq + k;
      entry.type = ValueType::kValue;
      entry.value = Slice(value);
      builder.Add(entry);
    }
    for (const RangeTombstone& rt : rts) {
      builder.AddRangeTombstone(rt);
    }
    TableProperties props;
    EXPECT_TRUE(builder.Finish(&props).ok());
    EXPECT_TRUE(file->Sync().ok());
    EXPECT_TRUE(file->Close().ok());

    auto meta = std::make_shared<FileMeta>();
    meta->file_number = number;
    meta->file_size = props.file_size;
    meta->num_entries = props.num_entries;
    meta->num_range_tombstones = props.num_range_tombstones;
    meta->smallest_key = props.smallest_key.empty() && !rts.empty()
                             ? rts.front().begin_key
                             : props.smallest_key;
    meta->largest_key = props.largest_key.empty() && !rts.empty()
                            ? rts.front().end_key
                            : props.largest_key;
    meta->smallest_seq = props.smallest_seq;
    meta->largest_seq = props.largest_seq;
    meta->num_pages = props.num_pages;
    meta->oldest_tombstone_time = props.oldest_range_tombstone_time;
    return meta;
  }

  /// Merges `files` window by window ([-inf, b_0), [b_0, b_1), ...,
  /// [b_last, +inf)) exactly as DBImpl::RunMergePartitioned does, returning
  /// the output FileMetas in partition order.
  /// `cut_keys`, `snapshots` and `secondary_deletes` go to every
  /// partition's MergeConfig.
  std::vector<FileMeta> RunPartitions(
      const std::vector<std::shared_ptr<FileMeta>>& files,
      const std::vector<std::string>& boundaries, bool bottommost,
      const std::vector<std::string>& cut_keys = {},
      const std::vector<SequenceNumber>& snapshots = {},
      std::shared_ptr<const SecondaryDeleteSet> secondary_deletes = nullptr) {
    std::vector<FileMeta> outputs;
    const size_t num_parts = boundaries.size() + 1;
    for (size_t i = 0; i < num_parts; i++) {
      MergeConfig config;
      config.output_level = 1;
      config.bottommost = bottommost;
      config.cut_keys = cut_keys;
      config.snapshots = snapshots;
      config.secondary_deletes = secondary_deletes;
      config.count_merge_stats = i == 0;
      if (i > 0) {
        config.partition_begin = boundaries[i - 1];
      }
      if (i < boundaries.size()) {
        config.partition_end = boundaries[i];
      }
      std::vector<std::unique_ptr<InternalIterator>> iters;
      std::vector<RangeTombstone> rts;
      EXPECT_TRUE(CollectFileInputs(versions_.get(), files, &iters, &rts).ok());
      if (config.count_merge_stats) {
        config.dropped_range_tombstones = rts.size();
      }
      const std::vector<RangeTombstone> clipped = ClipRangeTombstones(
          rts, config.partition_begin, config.partition_end);
      auto merged = NewMergingIterator(std::move(iters));
      MergeExecutor executor(options_, versions_.get(), &stats_);
      VersionEdit edit;
      EXPECT_TRUE(executor.Run(merged.get(), clipped, config, &edit).ok());
      for (auto& [level, meta] : edit.added_files) {
        EXPECT_EQ(level, 1);
        outputs.push_back(std::move(meta));
      }
    }
    return outputs;
  }

  /// Logical content of a set of output files: surviving user key → value,
  /// with range-tombstone coverage applied (newest version wins).
  std::map<std::string, std::string> ReadBack(
      const std::vector<FileMeta>& outputs) {
    std::map<std::string, std::string> content;
    std::vector<std::shared_ptr<FileMeta>> metas;
    for (const FileMeta& meta : outputs) {
      metas.push_back(std::make_shared<FileMeta>(meta));
    }
    std::vector<std::unique_ptr<InternalIterator>> iters;
    std::vector<RangeTombstone> rts;
    EXPECT_TRUE(CollectFileInputs(versions_.get(), metas, &iters, &rts).ok());
    RangeTombstoneSet rt_set;
    rt_set.AddAll(rts);
    auto merged = NewMergingIterator(std::move(iters));
    for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
      const ParsedEntry& entry = merged->entry();
      if (entry.IsTombstone() || rt_set.Covers(entry.user_key, entry.seq)) {
        continue;
      }
      content.emplace(entry.user_key.ToString(), entry.value.ToString());
    }
    return content;
  }

  /// Every entry (all versions) of one output file, as (user key, seq).
  std::vector<std::pair<std::string, SequenceNumber>> Entries(
      const FileMeta& output) {
    std::vector<std::unique_ptr<InternalIterator>> iters;
    std::vector<RangeTombstone> rts;
    EXPECT_TRUE(CollectFileInputs(versions_.get(),
                                  {std::make_shared<FileMeta>(output)}, &iters,
                                  &rts)
                    .ok());
    std::vector<std::pair<std::string, SequenceNumber>> entries;
    for (iters[0]->SeekToFirst(); iters[0]->Valid(); iters[0]->Next()) {
      entries.emplace_back(iters[0]->entry().user_key.ToString(),
                           iters[0]->entry().seq);
    }
    return entries;
  }

  /// The range tombstones of `outputs`, sorted by begin key.
  std::vector<RangeTombstone> OutputTombstones(
      const std::vector<FileMeta>& outputs) {
    std::vector<std::shared_ptr<FileMeta>> metas;
    for (const FileMeta& meta : outputs) {
      metas.push_back(std::make_shared<FileMeta>(meta));
    }
    std::vector<std::unique_ptr<InternalIterator>> iters;
    std::vector<RangeTombstone> rts;
    EXPECT_TRUE(CollectFileInputs(versions_.get(), metas, &iters, &rts).ok());
    std::sort(rts.begin(), rts.end(),
              [](const RangeTombstone& a, const RangeTombstone& b) {
                return Slice(a.begin_key).compare(Slice(b.begin_key)) < 0;
              });
    return rts;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  Statistics stats_;
  std::unique_ptr<VersionSet> versions_;
};

TEST_F(MergeExecutorPartitionTest, CutKeyNeverSplitsPinnedVersionChain) {
  // A snapshot between the two tables' sequences pins both versions of
  // keys [40, 60). A cut key at the start of such a chain, or just past
  // its user key, closes the output at a user-key change: every version of
  // a key lands in one output.
  auto old_file = BuildTable(0, 100, /*base_seq=*/1);
  auto new_file = BuildTable(40, 60, /*base_seq=*/10000);
  std::vector<std::shared_ptr<FileMeta>> inputs = {old_file, new_file};
  const std::vector<SequenceNumber> snapshots = {5000};

  auto uncut = RunPartitions(inputs, {}, false, {}, snapshots);
  ASSERT_EQ(uncut.size(), 1u);
  ASSERT_EQ(Entries(uncut[0]).size(), 120u);  // 100 + 20 pinned versions

  for (const std::string& cut : {EncodeKey(50), EncodeKey(50) + '\0'}) {
    auto outputs = RunPartitions(inputs, {}, false, {cut}, snapshots);
    ASSERT_EQ(outputs.size(), 2u);
    auto left = Entries(outputs[0]);
    auto right = Entries(outputs[1]);
    EXPECT_EQ(left.size() + right.size(), 120u);
    // The cut lands before the first user key at or past it, with both of
    // that key's versions on the right and the previous key's on the left.
    const std::string first_right =
        cut == EncodeKey(50) ? EncodeKey(50) : EncodeKey(51);
    EXPECT_EQ(right.front().first, first_right);
    EXPECT_EQ(right[1].first, first_right);
    EXPECT_LT(Slice(left.back().first).compare(Slice(first_right)), 0);
    EXPECT_EQ(left[left.size() - 2].first, left.back().first);
    EXPECT_EQ(ReadBack(outputs), ReadBack(uncut));
  }
}

// A compaction under a pending secondary range delete writes none of the
// entries it removes, even ones a snapshot pins, in every partition; entries
// written after the delete (above its sequence) survive in its band.
TEST_F(MergeExecutorPartitionTest, PendingSecondaryDeleteWritesNoCoveredEntry) {
  auto old_file = BuildTable(0, 100, /*base_seq=*/1);      // dk = key
  auto new_file = BuildTable(40, 60, /*base_seq=*/10000);  // after the delete
  const auto deletes = std::make_shared<const SecondaryDeleteSet>(
      std::vector<SecondaryDeleteRange>{{50, 70, /*seq=*/5000}});
  const uint64_t purged = stats_.entries_purged_by_srd.load();
  for (const std::vector<std::string>& boundaries :
       {std::vector<std::string>{}, {EncodeKey(55), EncodeKey(65)}}) {
    auto outputs = RunPartitions({old_file, new_file}, boundaries, false, {},
                                 /*snapshots=*/{5000}, deletes);
    size_t entries = 0;
    for (const FileMeta& output : outputs) {
      std::shared_ptr<SSTableReader> table;
      ASSERT_TRUE(versions_->table_cache()->GetTable(output, &table).ok());
      auto it = table->NewIterator(&output);
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        entries++;
        EXPECT_FALSE(deletes->Hides(it->entry().delete_key, it->entry().seq))
            << it->entry().user_key.ToString();
      }
    }
    // Old 0..49 and 70..99, new 40..59 (the snapshot pins old 40..49).
    EXPECT_EQ(entries, 100u);
    auto content = ReadBack(outputs);
    EXPECT_EQ(content.size(), 90u);  // every key but 60..69
    EXPECT_EQ(content[EncodeKey(55)], "v55");
    EXPECT_EQ(content.count(EncodeKey(65)), 0u);
  }
  EXPECT_EQ(stats_.entries_purged_by_srd.load() - purged, 2u * 20u);
}

TEST_F(MergeExecutorPartitionTest, CutInsideRangeTombstoneTilesCoverage) {
  // Range tombstone [30, 70) at seq 6000 hides the old keys under it; the
  // newer keys [45, 55) survive it. A cut at 50 splits the tombstone: both
  // pieces keep its seq and time and tile back to exactly [30, 70).
  RangeTombstone rt;
  rt.begin_key = EncodeKey(30);
  rt.end_key = EncodeKey(70);
  rt.seq = 6000;
  rt.time = 777;
  auto old_file = BuildTable(0, 100, 1);
  auto new_file = BuildTable(45, 55, 10000);
  auto tomb_file = BuildTable(99, 100, 5000, {rt});
  std::vector<std::shared_ptr<FileMeta>> inputs = {old_file, new_file,
                                                   tomb_file};

  auto uncut = RunPartitions(inputs, {}, false);
  auto cut = RunPartitions(inputs, {}, false, {EncodeKey(50)});
  ASSERT_EQ(uncut.size(), 1u);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(ReadBack(cut), ReadBack(uncut));
  EXPECT_EQ(ReadBack(cut).size(), 100u - 40u + 10u);

  auto pieces = OutputTombstones(cut);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].begin_key, EncodeKey(30));
  EXPECT_EQ(pieces[0].end_key, EncodeKey(50));
  EXPECT_EQ(pieces[1].begin_key, EncodeKey(50));
  EXPECT_EQ(pieces[1].end_key, EncodeKey(70));
  for (const RangeTombstone& piece : pieces) {
    EXPECT_EQ(piece.seq, rt.seq);
    EXPECT_EQ(piece.time, rt.time);
  }
  for (const FileMeta& meta : cut) {
    EXPECT_EQ(meta.num_range_tombstones, 1u);
    EXPECT_EQ(meta.oldest_tombstone_time, rt.time);
  }
}

TEST_F(MergeExecutorPartitionTest, CutKeyPastEveryEntryEmitsNoFile) {
  auto left = BuildTable(0, 40, 1);
  auto right = BuildTable(40, 80, 1000);
  std::vector<std::shared_ptr<FileMeta>> inputs = {left, right};
  auto uncut = RunPartitions(inputs, {}, false);
  auto cut = RunPartitions(inputs, {}, false, {EncodeKey(500)});
  ASSERT_EQ(cut.size(), uncut.size());
  EXPECT_EQ(cut[0].num_entries, 80u);
  EXPECT_EQ(ReadBack(cut), ReadBack(uncut));
}

TEST_F(MergeExecutorPartitionTest, TwoCutKeysHoldUnderSubcompactions) {
  // Cuts at 30 and 70, with one partition and with four (boundaries
  // 25/50/75 fall on other keys): no output holds keys on both sides of a
  // cut, and the content matches the uncut merge.
  auto old_file = BuildTable(0, 100, 1);
  auto new_file = BuildTable(20, 80, 1000);
  std::vector<std::shared_ptr<FileMeta>> inputs = {old_file, new_file};
  const std::vector<std::string> cuts = {EncodeKey(30), EncodeKey(70)};
  const auto expected = ReadBack(RunPartitions(inputs, {}, false));

  for (const auto& boundaries :
       {std::vector<std::string>{},
        std::vector<std::string>{EncodeKey(25), EncodeKey(50),
                                 EncodeKey(75)}}) {
    auto outputs = RunPartitions(inputs, boundaries, false, cuts);
    EXPECT_EQ(outputs.size(), 3u + boundaries.size());
    EXPECT_EQ(ReadBack(outputs), expected);
    std::vector<std::string> edges = cuts;
    edges.insert(edges.end(), boundaries.begin(), boundaries.end());
    for (const FileMeta& meta : outputs) {
      for (const std::string& edge : edges) {
        const bool below = Slice(meta.largest_key).compare(Slice(edge)) < 0;
        const bool above = Slice(meta.smallest_key).compare(Slice(edge)) >= 0;
        EXPECT_TRUE(below || above)
            << "output [" << meta.smallest_key << ", " << meta.largest_key
            << "] straddles an edge";
      }
    }
  }
}

TEST_F(MergeExecutorPartitionTest, BoundaryInsideRangeTombstonePreservesAll) {
  // Two overlapping tables; the newer one carries a range tombstone whose
  // span [40, 160) straddles every partition boundary below. The merge must
  // produce the same logical content and the same tombstone coverage no
  // matter how it is partitioned — including boundaries cutting through the
  // middle of the tombstone.
  RangeTombstone rt;
  rt.begin_key = EncodeKey(40);
  rt.end_key = EncodeKey(160);
  rt.seq = 100000;  // newer than every data entry
  rt.time = 777;
  auto old_file = BuildTable(0, 200, /*base_seq=*/1);
  auto new_file = BuildTable(50, 120, /*base_seq=*/10000, {rt});
  std::vector<std::shared_ptr<FileMeta>> inputs = {old_file, new_file};

  auto unsplit = RunPartitions(inputs, {}, /*bottommost=*/false);
  auto split2 = RunPartitions(inputs, {EncodeKey(100)}, false);
  auto split4 = RunPartitions(
      inputs, {EncodeKey(60), EncodeKey(100), EncodeKey(140)}, false);

  auto expected = ReadBack(unsplit);
  // The tombstone (seq above everything) covers [40, 160) entirely.
  ASSERT_EQ(expected.size(), 40u + 40u);  // keys [0,40) and [160,200)
  EXPECT_EQ(ReadBack(split2), expected);
  EXPECT_EQ(ReadBack(split4), expected);

  // Tombstone coverage carried forward: the clipped pieces reunite into
  // exactly [40, 160), and FADE's age accounting is unchanged — every
  // piece keeps the original insertion time, so the oldest tombstone time
  // over the outputs matches the unsplit merge.
  for (const auto& outputs : {split2, split4}) {
    std::string cover_begin, cover_end;
    uint64_t oldest = UINT64_MAX;
    std::vector<std::shared_ptr<FileMeta>> metas;
    for (const FileMeta& meta : outputs) {
      metas.push_back(std::make_shared<FileMeta>(meta));
      if (meta.num_range_tombstones > 0) {
        oldest = std::min(oldest, meta.oldest_tombstone_time);
      }
    }
    std::vector<std::unique_ptr<InternalIterator>> iters;
    std::vector<RangeTombstone> rts;
    ASSERT_TRUE(CollectFileInputs(versions_.get(), metas, &iters, &rts).ok());
    ASSERT_FALSE(rts.empty());
    std::sort(rts.begin(), rts.end(),
              [](const RangeTombstone& a, const RangeTombstone& b) {
                return Slice(a.begin_key).compare(Slice(b.begin_key)) < 0;
              });
    cover_begin = rts.front().begin_key;
    cover_end = rts.front().end_key;
    for (size_t i = 1; i < rts.size(); i++) {
      EXPECT_EQ(rts[i].seq, rt.seq);
      EXPECT_EQ(rts[i].time, rt.time);
      // Pieces must tile without a gap.
      EXPECT_LE(Slice(rts[i].begin_key).compare(Slice(cover_end)), 0);
      if (Slice(rts[i].end_key).compare(Slice(cover_end)) > 0) {
        cover_end = rts[i].end_key;
      }
    }
    EXPECT_EQ(cover_begin, EncodeKey(40));
    EXPECT_EQ(cover_end, EncodeKey(160));
    EXPECT_EQ(oldest, rt.time);
  }
}

TEST_F(MergeExecutorPartitionTest, BottommostDropCountsStraddlingTombstoneOnce) {
  // A range tombstone straddling the partition boundary is clipped into
  // one piece per partition, but a bottommost merge persists ONE delete —
  // the tombstones_dropped statistic must not scale with the fan-out.
  RangeTombstone rt;
  rt.begin_key = EncodeKey(20);
  rt.end_key = EncodeKey(80);
  rt.seq = 100000;
  rt.time = 9;
  auto data = BuildTable(0, 80, 1);
  auto tombs = BuildTable(70, 80, 10000, {rt});
  std::vector<std::shared_ptr<FileMeta>> inputs = {data, tombs};

  const uint64_t before = stats_.tombstones_dropped.load();
  RunPartitions(inputs, {EncodeKey(40)}, /*bottommost=*/true);
  EXPECT_EQ(stats_.tombstones_dropped.load() - before, 1u);
}

TEST_F(MergeExecutorPartitionTest, EmptyPartitionEmitsNoFile) {
  auto left = BuildTable(0, 40, 1);
  auto right = BuildTable(40, 80, 1000);
  std::vector<std::shared_ptr<FileMeta>> inputs = {left, right};
  // Boundary beyond every key: partition 1 is empty and must emit nothing.
  auto outputs = RunPartitions(inputs, {EncodeKey(500)}, false);
  auto expected = RunPartitions(inputs, {}, false);
  EXPECT_EQ(ReadBack(outputs), ReadBack(expected));
  EXPECT_EQ(outputs.size(), expected.size());
}

TEST_F(MergeExecutorPartitionTest, FullyCoveredPartitionAtBottomEmitsNoFile) {
  // The tombstone covers the right half; at the bottommost level nothing
  // survives there, so that partition produces no output file at all.
  RangeTombstone rt;
  rt.begin_key = EncodeKey(40);
  rt.end_key = EncodeKey(80);
  rt.seq = 100000;
  rt.time = 5;
  auto data = BuildTable(0, 80, 1);
  auto tombs = BuildTable(70, 80, 10000, {rt});
  std::vector<std::shared_ptr<FileMeta>> inputs = {data, tombs};

  auto outputs = RunPartitions(inputs, {EncodeKey(40)}, /*bottommost=*/true);
  auto content = ReadBack(outputs);
  ASSERT_EQ(content.size(), 40u);  // keys [0, 40) only
  for (const FileMeta& meta : outputs) {
    // Bottommost: no range tombstone survives into any output.
    EXPECT_EQ(meta.num_range_tombstones, 0u);
    // Every output lies in the left partition.
    EXPECT_LT(Slice(meta.largest_key).compare(Slice(EncodeKey(40))), 0);
  }
}

TEST(VersionSetTest, FileNumbersMonotonic) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options = options.WithDefaults();
  VersionSet versions(options, "db");
  ASSERT_TRUE(versions.Recover().ok());
  uint64_t a = versions.NewFileNumber();
  uint64_t b = versions.NewFileNumber();
  EXPECT_LT(a, b);
  uint64_t r1 = versions.NewRunId();
  uint64_t r2 = versions.NewRunId();
  EXPECT_LT(r1, r2);
}

}  // namespace
}  // namespace lethe
