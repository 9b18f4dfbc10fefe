// Unit tests for the util substrate: Slice, Status, coding, CRC32C, hashing,
// Random, Histogram, Arena, Clock, the shared record log, and the
// Statistics field list.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/statistics.h"
#include "src/env/env.h"
#include "src/util/arena.h"
#include "src/util/clock.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/hash.h"
#include "src/util/histogram.h"
#include "src/util/random.h"
#include "src/util/record_log.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {
namespace {

TEST(SliceTest, BasicAccessors) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  std::string backing = "hello world";
  Slice s(backing);
  EXPECT_EQ(s.size(), 11u);
  EXPECT_EQ(s[0], 'h');
  EXPECT_EQ(s.ToString(), "hello world");
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Shorter prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
}

TEST(SliceTest, PrefixSuffixRemoval) {
  std::string backing = "abcdef";
  Slice s(backing);
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "cdef");
  s.remove_suffix(2);
  EXPECT_EQ(s.ToString(), "cd");
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("abcdef").starts_with(Slice("abd")));
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");

  Status nf = Status::NotFound("missing key");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ(nf.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::Busy().IsBusy());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice input(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&input, &v32));
  ASSERT_TRUE(GetFixed64(&input, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) {
    PutVarint64(&buf, v);
  }
  Slice input(buf);
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&input, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint32Truncated) {
  std::string buf;
  PutVarint32(&buf, 1u << 28);
  buf.pop_back();
  Slice input(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&input, &v));
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 300ull, 1ull << 40}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("alpha"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  PutLengthPrefixedSlice(&buf, Slice("b"));
  Slice input(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "b");
}

TEST(Crc32cTest, KnownProperties) {
  // CRC of different data differs; CRC is deterministic; extend composes.
  uint32_t a = crc32c::Value("hello", 5);
  uint32_t b = crc32c::Value("world", 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, crc32c::Value("hello", 5));
  uint32_t whole = crc32c::Value("helloworld", 10);
  uint32_t composed = crc32c::Extend(crc32c::Value("hello", 5), "world", 5);
  EXPECT_EQ(whole, composed);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  uint32_t crc = crc32c::Value("payload", 7);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  uint64_t h1 = MurmurHash64("key", 3, 1);
  EXPECT_EQ(h1, MurmurHash64("key", 3, 1));
  EXPECT_NE(h1, MurmurHash64("key", 3, 2));
  EXPECT_NE(h1, MurmurHash64("kez", 3, 1));
}

TEST(HashTest, TailBytesMatter) {
  // Lengths not divisible by 8 exercise the tail path.
  for (size_t len = 1; len <= 16; len++) {
    std::string a(len, 'x');
    std::string b = a;
    b[len - 1] = 'y';
    EXPECT_NE(MurmurHash64(a.data(), len, 7), MurmurHash64(b.data(), len, 7))
        << "length " << len;
  }
}

TEST(RandomTest, UniformBoundsAndDeterminism) {
  Random r1(99), r2(99);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = r1.Uniform(17);
    EXPECT_LT(v, 17u);
    EXPECT_EQ(v, r2.Uniform(17));
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(3);
  for (int i = 0; i < 1000; i++) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliRoughFrequency) {
  Random r(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    hits += r.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(HistogramTest, AverageAndBounds) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Average(), 50.5);
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 30.0);
  EXPECT_LE(p50, 70.0);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a, b;
  a.Add(10);
  b.Add(20);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 60u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_EQ(a.min(), 10u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Average(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(ArenaTest, AllocationsAreDistinctAndUsable) {
  Arena arena;
  std::set<char*> seen;
  for (int i = 1; i <= 200; i++) {
    char* p = arena.Allocate(i);
    ASSERT_NE(p, nullptr);
    memset(p, i & 0xff, i);  // must be writable
    EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(ArenaTest, AlignedAllocations) {
  Arena arena;
  for (int i = 0; i < 50; i++) {
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
  }
}

TEST(ArenaTest, LargeAllocationGetsOwnBlock) {
  Arena arena;
  size_t before = arena.MemoryUsage();
  char* p = arena.Allocate(100000);
  ASSERT_NE(p, nullptr);
  memset(p, 1, 100000);
  EXPECT_GE(arena.MemoryUsage() - before, 100000u);
}

TEST(ClockTest, LogicalClockAdvances) {
  LogicalClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100u);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150u);
  clock.SetMicros(7);
  EXPECT_EQ(clock.NowMicros(), 7u);
}

TEST(ClockTest, SystemClockMonotone) {
  SystemClock clock;
  uint64_t a = clock.NowMicros();
  uint64_t b = clock.NowMicros();
  EXPECT_LE(a, b);
}

TEST(RecordLogTest, RoundTripManyRecords) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env->NewWritableFile("log", &wf).ok());
  {
    RecordLogWriter writer(std::move(wf), false);
    for (int i = 0; i < 100; i++) {
      std::string payload(i, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(writer.AddRecord(payload).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  std::unique_ptr<SequentialFile> sf;
  ASSERT_TRUE(env->NewSequentialFile("log", &sf).ok());
  RecordLogReader reader(std::move(sf));
  std::string record;
  Status status;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(reader.ReadRecord(&record, &status)) << i;
    EXPECT_EQ(record, std::string(i, static_cast<char>('a' + i % 26)));
  }
  EXPECT_FALSE(reader.ReadRecord(&record, &status));
  EXPECT_TRUE(status.ok());
}

TEST(RecordLogTest, TornTailStopsCleanly) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env->NewWritableFile("log", &wf).ok());
  {
    RecordLogWriter writer(std::move(wf), false);
    ASSERT_TRUE(writer.AddRecord("complete record").ok());
    ASSERT_TRUE(writer.AddRecord("will be torn").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Truncate the file mid-way through the second record.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), "log", &contents).ok());
  contents.resize(contents.size() - 5);
  ASSERT_TRUE(WriteStringToFile(env.get(), contents, "log").ok());

  std::unique_ptr<SequentialFile> sf;
  ASSERT_TRUE(env->NewSequentialFile("log", &sf).ok());
  RecordLogReader reader(std::move(sf));
  std::string record;
  Status status;
  ASSERT_TRUE(reader.ReadRecord(&record, &status));
  EXPECT_EQ(record, "complete record");
  EXPECT_FALSE(reader.ReadRecord(&record, &status));
}

TEST(RecordLogTest, CorruptPayloadDetected) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env->NewWritableFile("log", &wf).ok());
  {
    RecordLogWriter writer(std::move(wf), false);
    ASSERT_TRUE(writer.AddRecord("important payload bytes").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), "log", &contents).ok());
  contents[contents.size() - 3] ^= 0x42;  // flip a payload byte
  ASSERT_TRUE(WriteStringToFile(env.get(), contents, "log").ok());

  std::unique_ptr<SequentialFile> sf;
  ASSERT_TRUE(env->NewSequentialFile("log", &sf).ok());
  RecordLogReader reader(std::move(sf));
  std::string record;
  Status status;
  EXPECT_FALSE(reader.ReadRecord(&record, &status));
  EXPECT_TRUE(status.IsCorruption());
}

TEST(StatisticsTest, EveryFieldCopiesAndMerges) {
  // Fill every counter and gauge through the field list itself, each with
  // a distinct nonzero value, so a field the copy or merge skipped shows up
  // as a zero (or a neighbour's value) under its own name. The histogram
  // samples go first: RecordStall also bumps stall_micros.
  Statistics stats;
  stats.RecordStall(7);
  stats.RecordSubcompactionSkew(1000);
  stats.RecordRtFragmentCount(3);
  stats.RecordNetPipelineDepth(16);
  stats.RecordNetBatchSize(64);
  uint64_t next = 1;
#define LETHE_STAT(name) stats.name.store(next++);
#define LETHE_STAT_ARRAY(name, size) \
  for (auto& slot : stats.name) slot.store(next++);
#include "src/core/statistics_fields.inc"
#undef LETHE_STAT
#undef LETHE_STAT_ARRAY

  const Statistics copied(stats);
  Statistics assigned;
  assigned = stats;
  Statistics merged;
  merged.AddFrom(stats);
  const Statistics* views[] = {&copied, &assigned, &merged};
  for (const Statistics* view : views) {
    uint64_t expect = 1;
#define LETHE_STAT(name) EXPECT_EQ(view->name.load(), expect++) << #name;
#define LETHE_STAT_ARRAY(name, size)                        \
  for (size_t i = 0; i < (size); i++) {                     \
    EXPECT_EQ(view->name[i].load(), expect++) << #name << i; \
  }
#include "src/core/statistics_fields.inc"
#undef LETHE_STAT
#undef LETHE_STAT_ARRAY
    EXPECT_EQ(expect, next);
    EXPECT_EQ(view->StallHistogram().count(), 1u);
    EXPECT_EQ(view->SubcompactionSkewHistogram().count(), 1u);
    EXPECT_EQ(view->RtFragmentHistogram().count(), 1u);
    EXPECT_EQ(view->NetPipelineDepthHistogram().count(), 1u);
    EXPECT_EQ(view->NetBatchSizeHistogram().count(), 1u);
  }
}

}  // namespace
}  // namespace lethe
