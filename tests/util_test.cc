// Unit tests for the util substrate: Slice, Status, coding, CRC32C, hashing,
// Random, Histogram, Arena, Clock, the shared record log, and the
// Statistics field list.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/statistics.h"
#include "src/env/env.h"
#include "src/memtable/wal.h"
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
  std::vector<uint64_t> values = {0, 300, 1ull << 40, UINT64_MAX};
  for (int bits = 7; bits < 64; bits += 7) {  // each width's edges
    values.push_back((1ull << bits) - 1);
    values.push_back(1ull << bits);
  }
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v)) << v;
    uint64_t decoded = 0;
    EXPECT_EQ(GetVarint64Ptr(buf.data(), buf.data() + buf.size(), &decoded),
              buf.data() + buf.size())
        << v;
    EXPECT_EQ(decoded, v);
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

// RFC 3720 §B.4 test vectors, plus the customary "123456789" check value.
TEST(Crc32cTest, KnownAnswers) {
  std::string buf(32, '\0');
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x8a9136aau);
  buf.assign(32, '\xff');
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x62a8ab43u);
  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x46dd794eu);
  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x113fdb5cu);
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  for (const auto& extend : {crc32c::ExtendPortable, crc32c::Extend}) {
    EXPECT_EQ(extend(0, "123456789", 9), 0xe3069283u);
  }
}

// The dispatched Extend (hardware where present) must give the portable
// loop's bits at every length, start alignment and starting CRC.
TEST(Crc32cTest, DispatchMatchesPortableLoop) {
  Random rnd(301);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) {
    c = static_cast<char>(rnd.Uniform(256));
  }
  for (size_t align = 0; align < 8; align++) {
    for (size_t n = 0; n <= 1024; n++) {
      const uint32_t init = static_cast<uint32_t>(rnd.Next());
      const char* data = buf.data() + align;
      ASSERT_EQ(crc32c::Extend(init, data, n),
                crc32c::ExtendPortable(init, data, n))
          << "align " << align << " n " << n << " init " << init;
    }
  }
}

TEST(Crc32cTest, HardwareAcceleratedMatchesCpu) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(crc32c::HardwareAccelerated(),
            __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(crc32c::HardwareAccelerated());
#endif
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

/// Writes `payloads` through RecordLogWriter and returns the file's bytes.
std::string WriteLog(const std::vector<std::string>& payloads) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wf;
  EXPECT_TRUE(env->NewWritableFile("log", &wf).ok());
  RecordLogWriter writer(std::move(wf));
  for (const std::string& payload : payloads) {
    EXPECT_TRUE(writer.AddRecord(payload).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  std::string contents;
  EXPECT_TRUE(ReadFileToString(env.get(), "log", &contents).ok());
  return contents;
}

using ScanResult = RecordLogScanner::Result;

TEST(RecordLogScannerTest, RoundTripManyRecords) {
  std::vector<std::string> payloads;
  for (int i = 0; i < 100; i++) {
    payloads.emplace_back(i, static_cast<char>('a' + i % 26));
  }
  const std::string contents = WriteLog(payloads);
  RecordLogScanner scanner{Slice(contents)};
  Slice record;
  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(scanner.Next(&record), ScanResult::kRecord) << i;
    EXPECT_EQ(record.ToString(), payloads[i]);
  }
  EXPECT_EQ(scanner.Next(&record), ScanResult::kEnd);
  EXPECT_EQ(scanner.offset(), contents.size());
}

TEST(RecordLogScannerTest, TornTailStopsCleanly) {
  std::string contents = WriteLog({"complete record", "will be torn"});
  contents.resize(contents.size() - 5);  // cut into the second payload

  RecordLogScanner scanner{Slice(contents)};
  Slice record;
  ASSERT_EQ(scanner.Next(&record), ScanResult::kRecord);
  EXPECT_EQ(record.ToString(), "complete record");
  const uint64_t torn_offset = scanner.offset();
  EXPECT_EQ(scanner.Next(&record), ScanResult::kTornTail);
  EXPECT_EQ(scanner.offset(), torn_offset) << "stays at the bad frame";
  EXPECT_EQ(scanner.Resync(), contents.size() - torn_offset);
  EXPECT_EQ(scanner.Next(&record), ScanResult::kEnd);
}

TEST(RecordLogScannerTest, CorruptPayloadDetected) {
  std::string contents = WriteLog({"important payload bytes"});
  contents[contents.size() - 3] ^= 0x42;  // flip a payload byte
  RecordLogScanner scanner{Slice(contents)};
  Slice record;
  EXPECT_EQ(scanner.Next(&record), ScanResult::kCorrupt);
}

// A damaged length varint claiming ~1 GiB is a torn tail, not a buffer to
// size: the scanner reads frames in place, and the records it returns
// alias the log bytes.
TEST(RecordLogScannerTest, CorruptLengthAllocatesNothing) {
  std::string contents = WriteLog({"first record"});
  // masked crc | varint 1 GiB (80 80 80 80 04) | 4 payload bytes.
  contents.append("\x11\x22\x33\x44\x80\x80\x80\x80\x04tail", 13);
  RecordLogScanner scanner{Slice(contents)};
  Slice record;
  ASSERT_EQ(scanner.Next(&record), ScanResult::kRecord);
  EXPECT_EQ(record.ToString(), "first record");
  EXPECT_GE(record.data(), contents.data());
  EXPECT_LE(record.data() + record.size(), contents.data() + contents.size());
  EXPECT_EQ(scanner.Next(&record), ScanResult::kTornTail);
}

TEST(RecordLogScannerTest, ResyncSkipsDamagedMiddleFrame) {
  const std::string first = WriteLog({"first"});
  const std::string second = WriteLog({"second, to be damaged"});
  std::string contents = WriteLog({"first", "second, to be damaged", "third"});
  contents[first.size() + second.size() - 2] ^= 0x01;

  RecordLogScanner scanner{Slice(contents)};
  Slice record;
  ASSERT_EQ(scanner.Next(&record), ScanResult::kRecord);
  EXPECT_EQ(record.ToString(), "first");
  EXPECT_EQ(scanner.Next(&record), ScanResult::kCorrupt);
  EXPECT_EQ(scanner.Resync(), second.size());
  ASSERT_EQ(scanner.Next(&record), ScanResult::kRecord);
  EXPECT_EQ(record.ToString(), "third");
  EXPECT_EQ(scanner.Next(&record), ScanResult::kEnd);
}

TEST(RecordLogScannerTest, OverlongLengthVarintIsCorrupt) {
  // masked crc | five continuation bytes: no valid varint32 is that long.
  std::string contents("\x11\x22\x33\x44\x80\x80\x80\x80\x80\x01", 10);
  const std::string intact = WriteLog({"after the damage"});
  contents += intact;
  RecordLogScanner scanner{Slice(contents)};
  Slice record;
  EXPECT_EQ(scanner.Next(&record), ScanResult::kCorrupt);
  EXPECT_EQ(scanner.Resync(), contents.size() - intact.size());
  ASSERT_EQ(scanner.Next(&record), ScanResult::kRecord);
  EXPECT_EQ(record.ToString(), "after the damage");
}

/// A commit group with owned op bytes, for building and checking logs.
struct OwnedGroup {
  SequenceNumber first_seq = 0;
  uint64_t time = 0;
  struct Op {
    WalOp::Kind kind = WalOp::Kind::kPut;
    std::string key, end_key, value;
    uint64_t delete_key = 0, delete_key_end = 0;
  };
  std::vector<Op> ops;

  WalGroup View() const {
    WalGroup group;
    group.first_seq = first_seq;
    group.time = time;
    for (const Op& op : ops) {
      WalOp& view = group.ops.emplace_back();
      view.kind = op.kind;
      view.key = op.key;
      view.end_key = op.end_key;
      view.delete_key = op.delete_key;
      view.value = op.value;
      view.delete_key_end = op.delete_key_end;
    }
    return group;
  }

  /// Whether `got` is this whole group: every op, each field equal.
  bool Matches(const WalGroup& got) const {
    if (got.first_seq != first_seq || got.time != time ||
        got.ops.size() != ops.size()) {
      return false;
    }
    for (size_t i = 0; i < ops.size(); i++) {
      const Op& a = ops[i];
      const WalOp& b = got.ops[i];
      if (a.kind != b.kind || Slice(a.key) != b.key ||
          Slice(a.end_key) != b.end_key || Slice(a.value) != b.value ||
          a.delete_key != b.delete_key ||
          a.delete_key_end != b.delete_key_end) {
        return false;
      }
    }
    return true;
  }
};

// Seeded truncations and byte flips of a WAL of multi-op commit groups, fed
// through the scanner and DecodeWalGroup as Open and DB::Repair feed them:
// every group before the damage comes back whole, the damaged frame never
// reads as a group, after Resync exactly the frames behind it remain, and
// no scan ever yields part of a group. Under ASan this also proves no
// mutation makes the scanner or the decoder read outside the buffer.
TEST(RecordLogScannerTest, SeededWalMutations) {
  Random rnd(301);
  std::vector<OwnedGroup> groups(60);
  std::string wal;
  std::vector<size_t> frame_ends;
  SequenceNumber next_seq = 1;
  for (OwnedGroup& g : groups) {
    g.first_seq = next_seq;
    g.time = rnd.Next();
    g.ops.resize(1 + rnd.Uniform(4));
    for (OwnedGroup::Op& op : g.ops) {
      op.kind = static_cast<WalOp::Kind>(1 + rnd.Uniform(4));
      if (op.kind != WalOp::Kind::kSecondaryRangeDelete) {
        op.key = std::string(rnd.Uniform(300), static_cast<char>(rnd.Next()));
      }
      if (op.kind == WalOp::Kind::kRangeDelete) {
        op.end_key = op.key + "~";
      }
      op.delete_key = rnd.Next() >> rnd.Uniform(32);
      if (op.kind == WalOp::Kind::kPut) {
        op.value =
            std::string(rnd.Uniform(300), static_cast<char>(rnd.Next()));
      }
      if (op.kind == WalOp::Kind::kSecondaryRangeDelete) {
        op.delete_key_end = op.delete_key + rnd.Uniform(1000);
      }
    }
    next_seq += g.ops.size();
    AppendWalGroup(g.View(), &wal);
    frame_ends.push_back(wal.size());
  }

  // Scans on from the scanner's position, expecting groups [from, to) and
  // then `last`.
  auto expect_groups = [&](RecordLogScanner* scanner, size_t from, size_t to,
                           ScanResult last, const std::string& what) {
    Slice payload;
    for (size_t i = from; i < to; i++) {
      ASSERT_EQ(scanner->Next(&payload), ScanResult::kRecord) << what << i;
      WalGroup got;
      ASSERT_TRUE(DecodeWalGroup(payload, &got)) << what << i;
      ASSERT_TRUE(groups[i].Matches(got)) << what << i;
    }
    ASSERT_EQ(scanner->Next(&payload), last) << what;
  };

  for (int trial = 0; trial < 100; trial++) {
    const size_t cut = rnd.Uniform(wal.size() + 1);
    const std::string log = wal.substr(0, cut);
    const size_t whole = std::upper_bound(frame_ends.begin(),
                                          frame_ends.end(), cut) -
                         frame_ends.begin();
    const bool at_boundary =
        whole == 0 ? cut == 0 : frame_ends[whole - 1] == cut;
    RecordLogScanner scanner{Slice(log)};
    expect_groups(&scanner, 0, whole,
                  at_boundary ? ScanResult::kEnd : ScanResult::kTornTail,
                  "cut=" + std::to_string(cut) + " group ");
  }

  for (int trial = 0; trial < 200; trial++) {
    const size_t at = rnd.Uniform(wal.size());
    std::string log = wal;
    log[at] = static_cast<char>(log[at] ^ (1 + rnd.Uniform(255)));
    const size_t damaged = std::upper_bound(frame_ends.begin(),
                                            frame_ends.end(), at) -
                           frame_ends.begin();
    const std::string what = "flip at " + std::to_string(at) + " group ";
    RecordLogScanner scanner{Slice(log)};
    Slice payload;
    for (size_t i = 0; i < damaged; i++) {
      ASSERT_EQ(scanner.Next(&payload), ScanResult::kRecord) << what << i;
    }
    const ScanResult bad = scanner.Next(&payload);
    ASSERT_TRUE(bad == ScanResult::kCorrupt || bad == ScanResult::kTornTail)
        << what << damaged;
    scanner.Resync();
    expect_groups(&scanner, damaged + 1, groups.size(), ScanResult::kEnd,
                  what);
  }
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
