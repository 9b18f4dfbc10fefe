// Tests for the on-disk format: entry encoding, pages, Bloom filters, range
// tombstones, FileMeta, and the KiWi SSTable builder/reader (delete tiles,
// fence pointers, page-level filters, secondary-delete planning).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>

#include "src/env/env.h"
#include "src/format/bloom.h"
#include "src/format/entry.h"
#include "src/format/file_meta.h"
#include "src/format/page.h"
#include "src/format/page_cache.h"
#include "src/format/range_tombstone.h"
#include "src/format/sstable_builder.h"
#include "src/format/sstable_reader.h"
#include "src/lsm/version_edit.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/workload/generator.h"

namespace lethe {
namespace {

using workload::EncodeKey;

TEST(EntryTest, EncodeDecodeRoundTrip) {
  ParsedEntry entry;
  entry.user_key = Slice("the-key");
  entry.delete_key = 0x1122334455667788ull;
  entry.seq = 987654;
  entry.type = ValueType::kValue;
  entry.value = Slice("payload");

  std::string buf;
  EncodeEntry(entry, &buf);
  EXPECT_EQ(buf.size(), EncodedEntrySize(entry));

  Slice input(buf);
  ParsedEntry decoded;
  ASSERT_TRUE(DecodeEntry(&input, &decoded));
  EXPECT_EQ(decoded.user_key.ToString(), "the-key");
  EXPECT_EQ(decoded.delete_key, entry.delete_key);
  EXPECT_EQ(decoded.seq, entry.seq);
  EXPECT_EQ(decoded.type, ValueType::kValue);
  EXPECT_EQ(decoded.value.ToString(), "payload");
  EXPECT_TRUE(input.empty());
}

TEST(EntryTest, TombstoneRoundTrip) {
  ParsedEntry entry;
  entry.user_key = Slice("gone");
  entry.type = ValueType::kTombstone;
  entry.seq = 5;
  std::string buf;
  EncodeEntry(entry, &buf);
  Slice input(buf);
  ParsedEntry decoded;
  ASSERT_TRUE(DecodeEntry(&input, &decoded));
  EXPECT_TRUE(decoded.IsTombstone());
  EXPECT_TRUE(decoded.value.empty());
}

TEST(EntryTest, MalformedInputRejected) {
  std::string buf = "\x05"
                    "ab";  // claims 5-byte key, only 2 present
  Slice input(buf);
  ParsedEntry decoded;
  EXPECT_FALSE(DecodeEntry(&input, &decoded));
}

TEST(EntryTest, InternalOrderingSeqDescending) {
  ParsedEntry newer, older;
  newer.user_key = older.user_key = Slice("k");
  newer.seq = 10;
  older.seq = 3;
  EXPECT_LT(CompareInternal(newer, older), 0);  // newer sorts first
  ParsedEntry other;
  other.user_key = Slice("l");
  other.seq = 100;
  EXPECT_LT(CompareInternal(newer, other), 0);  // key order dominates
}

TEST(EntryTest, PackUnpackSeqType) {
  uint64_t packed = PackSeqAndType(123456, ValueType::kTombstone);
  EXPECT_EQ(UnpackSeq(packed), 123456u);
  EXPECT_EQ(UnpackType(packed), ValueType::kTombstone);
}

ParsedEntry MakeEntry(const std::string& key, uint64_t dk, SequenceNumber seq,
                      const std::string& value,
                      ValueType type = ValueType::kValue) {
  ParsedEntry e;
  e.user_key = Slice(key);
  e.delete_key = dk;
  e.seq = seq;
  e.type = type;
  e.value = Slice(value);
  return e;
}

TEST(PageTest, BuildDecodeRoundTrip) {
  PageBuilder builder(4096, 16);
  std::string k1 = "aaa", k2 = "bbb", v = "val";
  ASSERT_TRUE(builder.Add(MakeEntry(k1, 1, 10, v)));
  ASSERT_TRUE(builder.Add(MakeEntry(k2, 2, 11, v)));
  std::string page = builder.Finish();
  EXPECT_EQ(page.size(), 4096u);

  PageContents contents;
  ASSERT_TRUE(DecodePage(Slice(page), 4096, &contents).ok());
  ASSERT_EQ(contents.entries.size(), 2u);
  EXPECT_EQ(contents.entries[0].user_key.ToString(), "aaa");
  EXPECT_EQ(contents.entries[1].user_key.ToString(), "bbb");
}

TEST(PageTest, RejectsOverflowByCount) {
  PageBuilder builder(4096, 2);
  EXPECT_TRUE(builder.Add(MakeEntry("a", 1, 1, "v")));
  EXPECT_TRUE(builder.Add(MakeEntry("b", 1, 2, "v")));
  EXPECT_FALSE(builder.Add(MakeEntry("c", 1, 3, "v")));
}

TEST(PageTest, RejectsOverflowByBytes) {
  PageBuilder builder(256, 100);
  std::string big_value(300, 'x');
  EXPECT_FALSE(builder.Add(MakeEntry("k", 1, 1, big_value)));
}

TEST(PageTest, ChecksumDetectsCorruption) {
  PageBuilder builder(1024, 4);
  ASSERT_TRUE(builder.Add(MakeEntry("key", 1, 1, "value")));
  std::string page = builder.Finish();
  page[10] ^= 0x7f;
  PageContents contents;
  EXPECT_TRUE(DecodePage(Slice(page), 1024, &contents).IsCorruption());
}

/// Rewrites a page's checksum trailer after a test edits its bytes, so only
/// DecodePage's structural checks can reject it.
void Reseal(std::string* page) {
  const size_t covered = page->size() - 4;
  EncodeFixed32(page->data() + covered,
                crc32c::Mask(crc32c::Value(page->data(), covered)));
}

void ExpectSameEntry(const ParsedEntry& actual, const ParsedEntry& expected) {
  EXPECT_EQ(actual.user_key, expected.user_key);
  EXPECT_EQ(actual.delete_key, expected.delete_key);
  EXPECT_EQ(actual.seq, expected.seq);
  EXPECT_EQ(actual.type, expected.type);
  EXPECT_EQ(actual.value, expected.value);
}

// Differential: random pages (keys and values of 0..300 bytes across the
// 1-to-2-byte varint boundary, sequences and delete keys of every varint
// width, tombstones, empty values, repeated keys, one-entry pages, a page
// size that is not a multiple of 4). The stored page must be the count,
// the common prefix of its first and last key, and each entry with its key
// cut to the suffix after it; the offset table must read back exactly the
// entries the builder took, as EncodeEntry writes them, back to back in a
// buffer sized to them.
TEST(PageTest, EntryViewMatchesSequentialDecode) {
  Random rnd(17);
  for (int trial = 0; trial < 300; trial++) {
    const uint64_t page_size = trial % 3 == 0 ? 1021 : 4096;
    std::vector<std::string> keys, values;
    std::vector<ParsedEntry> candidates;
    const int n = 1 + static_cast<int>(rnd.Uniform(60));
    keys.reserve(n);
    values.reserve(n);
    for (int i = 0; i < n; i++) {
      if (i > 0 && rnd.Uniform(4) == 0) {
        keys.push_back(keys.back());  // another version of the same key
      } else {
        const size_t len = rnd.Uniform(8) == 0 ? 120 + rnd.Uniform(180)
                                               : rnd.Uniform(24);
        std::string key(len, '\0');
        for (char& c : key) {
          c = static_cast<char>(rnd.Uniform(256));
        }
        keys.push_back(std::move(key));
      }
      const size_t value_len =
          rnd.Uniform(5) == 0 ? 0 : rnd.Uniform(8) == 0 ? 200 : rnd.Uniform(40);
      values.push_back(std::string(value_len, static_cast<char>('a' + i % 26)));
      const uint32_t kind = rnd.Uniform(6);
      // Sequences up to kMaxSequenceNumber, the most the 56-bit field holds.
      candidates.push_back(MakeEntry(
          keys.back(), rnd.Next() >> rnd.Uniform(64),
          std::max<SequenceNumber>(1, kMaxSequenceNumber >> rnd.Uniform(57)),
          values.back(),
          kind == 0   ? ValueType::kTombstone
          : kind == 1 ? ValueType::kExpiringValue
                      : ValueType::kValue));
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const ParsedEntry& a, const ParsedEntry& b) {
                return CompareInternal(a, b) < 0;
              });
    PageBuilder builder(page_size, UINT32_MAX);
    for (const ParsedEntry& entry : candidates) {
      if (!builder.Add(entry)) {
        break;
      }
    }
    const uint32_t added = builder.num_entries();
    ASSERT_GT(added, 0u);
    const std::string page = builder.Finish();

    PageContents contents;
    ASSERT_TRUE(DecodePage(Slice(page), page_size, &contents).ok());
    const PageEntries& entries = contents.entries;
    ASSERT_EQ(entries.size(), added);
    const Slice data = contents.data();

    Slice body(page.data(), page.size() - 4);
    uint32_t count = 0, prefix_size = 0;
    ASSERT_TRUE(GetVarint32(&body, &count));
    ASSERT_TRUE(GetVarint32(&body, &prefix_size));
    EXPECT_EQ(count, added);
    ASSERT_EQ(prefix_size,
              SharedPrefixLength(candidates.front().user_key,
                                 candidates[added - 1].user_key));
    const std::string prefix(body.data(), prefix_size);
    body.remove_prefix(prefix_size);
    auto it = entries.begin();
    size_t offset = 0;
    for (size_t i = 0; i < entries.size(); i++, ++it) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " entry " +
                   std::to_string(i));
      const ParsedEntry& expected = candidates[i];
      ParsedEntry stored;
      ASSERT_TRUE(DecodeEntry(&body, &stored));
      EXPECT_EQ(prefix + stored.user_key.ToString(),
                expected.user_key.ToString());
      stored.user_key = expected.user_key;
      ExpectSameEntry(stored, expected);

      const ParsedEntry viewed = entries[i];
      ExpectSameEntry(viewed, expected);
      ExpectSameEntry(*it, expected);
      EXPECT_EQ(entries.key(i), expected.user_key);
      std::string encoded;
      EncodeEntry(expected, &encoded);
      EXPECT_EQ(entries.encoded(i), Slice(encoded));
      // The view aliases the decoded buffer, not the input.
      EXPECT_EQ(entries.encoded(i).data(), data.data() + offset);
      offset += encoded.size();
    }
    EXPECT_TRUE(it == entries.end());
    EXPECT_EQ(offset, data.size());
    // Only zero padding follows the stored entries.
    EXPECT_EQ(body.ToString(), std::string(body.size(), '\0'));

    // LowerBound finds the first version of every key, and the insertion
    // point of keys that are absent.
    for (size_t i = 0; i < entries.size(); i++) {
      const std::string key = entries.key(i).ToString();
      size_t first = 0;
      while (entries.key(first).compare(key) < 0) {
        first++;
      }
      EXPECT_EQ(entries.LowerBound(key), first);
      const std::string after = key + '\0';
      size_t next = first;
      while (next < entries.size() && entries.key(next).compare(after) < 0) {
        next++;
      }
      EXPECT_EQ(entries.LowerBound(after), next);
    }
  }
}

TEST(PageTest, MalformedMiddleEntryIsRejected) {
  const std::string key = "a", value = "v";
  const ParsedEntry first = MakeEntry(key, 1, 1, value);
  PageBuilder builder(1024, 16);
  ASSERT_TRUE(builder.Add(first));
  ASSERT_TRUE(builder.Add(MakeEntry("b", 2, 2, "v")));
  ASSERT_TRUE(builder.Add(MakeEntry("c", 3, 3, "v")));
  const std::string page = builder.Finish();
  // "a" and "c" share no prefix, so the header is a one-byte count and a
  // zero prefix length, and every entry keeps its whole key. The middle
  // entry starts after the header and the first entry: varint key length,
  // the key, then the varint (seq << 8 | type), whose first byte holds the
  // type in its low 7 bits.
  ASSERT_EQ(page.substr(0, 2), std::string("\x03\x00", 2));
  const size_t middle = 2 + EncodedEntrySize(first);

  std::string bad_type = page;
  // Neither kValue nor kTombstone; the continuation bit stays.
  bad_type[middle + 2] = static_cast<char>((bad_type[middle + 2] & 0x80) | 7);
  Reseal(&bad_type);
  PageContents contents;
  EXPECT_TRUE(DecodePage(Slice(bad_type), 1024, &contents).IsCorruption());

  std::string bad_length = page;
  bad_length[middle] = 0x7f;  // key length runs past the entry
  bad_length[middle + 1] = 0;
  std::string overrun = page;
  overrun[middle] = static_cast<char>(0xff);  // varint runs to the padding
  overrun[middle + 1] = static_cast<char>(0xff);
  overrun[middle + 2] = static_cast<char>(0xff);
  overrun[middle + 3] = static_cast<char>(0xff);
  overrun[middle + 4] = static_cast<char>(0x7f);
  std::string long_seq = page;  // a varint64 of more than 10 bytes
  for (size_t i = 0; i < 11; i++) {
    long_seq[middle + 2 + i] = static_cast<char>(0x80);
  }
  for (std::string* bad : {&bad_length, &overrun, &long_seq}) {
    Reseal(bad);
    EXPECT_TRUE(DecodePage(Slice(*bad), 1024, &contents).IsCorruption());
  }

  // The untouched page still decodes.
  ASSERT_TRUE(DecodePage(Slice(page), 1024, &contents).ok());
  EXPECT_EQ(contents.entries.size(), 3u);
}

/// `page` with its entry count and prefix length replaced, the bytes after
/// them kept (cut or zero-padded to the page size), and resealed.
std::string WithHeader(const std::string& page, uint32_t num_entries,
                       uint32_t prefix_size) {
  Slice rest(page.data(), page.size() - 4);
  uint32_t ignored;
  EXPECT_TRUE(GetVarint32(&rest, &ignored));
  EXPECT_TRUE(GetVarint32(&rest, &ignored));
  std::string out;
  PutVarint32(&out, num_entries);
  PutVarint32(&out, prefix_size);
  out.append(rest.data(), rest.size());
  out.resize(page.size());
  Reseal(&out);
  return out;
}

// Seeded mutations of a page's entry bytes (and its header: the entry
// count, the prefix length and the prefix), each resealed with a fresh CRC
// so only DecodePage's parse stands between the damage and the read path:
// the page is either rejected, or every entry it returns — through
// operator[], key(), encoded() and LowerBound — has slices inside the
// decoded buffer. Under ASan this also proves no mutation makes the
// decode, or the unchecked accessors, read or write outside the page.
TEST(PageTest, SeededMutationsStayInsideThePage) {
  Random rnd(29);
  constexpr uint64_t kPageSize = 4096;
  std::vector<std::string> keys, values;
  std::vector<ParsedEntry> entries;
  for (int i = 0; i < 40; i++) {
    keys.push_back(EncodeKey(i).substr(0, 1 + rnd.Uniform(16)));
    values.push_back(std::string(rnd.Uniform(5) == 0 ? 0 : rnd.Uniform(140),
                                 static_cast<char>('a' + i % 26)));
  }
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < 40; i++) {
    entries.push_back(MakeEntry(
        keys[i], rnd.Next() >> rnd.Uniform(64),
        1 + (kMaxSequenceNumber >> rnd.Uniform(57)), values[i],
        i % 7 == 3 ? ValueType::kTombstone : ValueType::kValue));
  }
  PageBuilder builder(kPageSize, UINT32_MAX);
  PageSizer sizer;
  for (const ParsedEntry& entry : entries) {
    if (!builder.Add(entry)) {
      break;
    }
    ASSERT_TRUE(
        sizer.Add(entry.user_key, EncodedEntrySize(entry), kPageSize - 4));
  }
  const uint32_t count = builder.num_entries();
  const std::string page = builder.Finish();
  const size_t used = sizer.bytes();  // header, prefix and entries
  const size_t header = 2;            // a one-byte count and prefix length
  ASSERT_GT(sizer.prefix_size(), 0u);

  int rejected = 0;
  for (int trial = 0; trial < 2000; trial++) {
    std::string mutated = page;
    const int flips = 1 + static_cast<int>(rnd.Uniform(3));
    for (int f = 0; f < flips; f++) {
      // Mostly entry bytes; now and then the header or the prefix.
      const size_t at = rnd.Uniform(10) == 0
                            ? rnd.Uniform(header + sizer.prefix_size())
                            : header + rnd.Uniform(used - header);
      mutated[at] = static_cast<char>(mutated[at] ^ (1 + rnd.Uniform(255)));
    }
    Reseal(&mutated);
    PageContents contents;
    if (!DecodePage(Slice(mutated), kPageSize, &contents).ok()) {
      rejected++;
      continue;
    }
    const char* begin = contents.data().data();
    const char* end = begin + contents.data().size();
    auto inside = [&](const Slice& slice) {
      return slice.data() >= begin && slice.data() + slice.size() <= end;
    };
    const PageEntries& view = contents.entries;
    for (size_t i = 0; i < view.size(); i++) {
      const ParsedEntry entry = view[i];
      ASSERT_TRUE(inside(entry.user_key)) << "trial " << trial << " " << i;
      ASSERT_TRUE(inside(entry.value)) << "trial " << trial << " " << i;
      ASSERT_TRUE(inside(view.encoded(i))) << "trial " << trial << " " << i;
      ASSERT_EQ(view.key(i), entry.user_key) << "trial " << trial;
      ASSERT_TRUE(entry.type == ValueType::kValue ||
                  entry.type == ValueType::kTombstone ||
                  entry.type == ValueType::kExpiringValue);
      ASSERT_LE(view.LowerBound(entry.user_key), view.size());
    }
  }
  // Most flips land in key or value bytes and leave a decodable page; the
  // rest must have been caught.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, 2000);

  // A prefix length that runs past the page body: one byte past it (its
  // varint is two bytes long), one that ends exactly at the end of the
  // page, and the largest length. The bytes after the page in memory hold
  // well-formed entries, so a decode that read on past the body would
  // find them.
  std::string after;
  for (uint32_t i = 0; i < count; i++) {
    EncodeEntry(MakeEntry("", 0, 1, ""), &after);
  }
  const uint32_t past_body = kPageSize - 4 - 1 - 2 + 1;
  for (uint32_t prefix_size :
       {past_body, uint32_t{kPageSize - 3}, UINT32_MAX}) {
    SCOPED_TRACE("prefix_len " + std::to_string(prefix_size));
    const std::string bad = WithHeader(page, count, prefix_size) + after;
    PageContents contents;
    EXPECT_TRUE(DecodePage(Slice(bad.data(), kPageSize), kPageSize, &contents)
                    .IsCorruption());
  }
  // The body exactly spent on the prefix leaves no room for the entries.
  PageContents contents;
  EXPECT_TRUE(DecodePage(Slice(WithHeader(page, count, past_body - 1)),
                         kPageSize, &contents)
                  .IsCorruption());
}

TEST(PageTest, OverLargeEntryCountIsRejected) {
  PageBuilder builder(1024, 16);
  ASSERT_TRUE(builder.Add(MakeEntry("a", 1, 1, "v")));
  ASSERT_TRUE(builder.Add(MakeEntry("b", 2, 2, "v")));
  const std::string page = builder.Finish();
  // One past the real entries (the next "entry" is zero padding), the most
  // smallest entries the body could hold behind a two-byte count and a
  // zero prefix length, one more, and the largest count.
  const uint32_t max_fit = (1024 - 4 - 3) / kMinEncodedEntrySize;
  for (uint32_t count : {3u, max_fit, max_fit + 1, UINT32_MAX}) {
    SCOPED_TRACE("num_entries " + std::to_string(count));
    PageContents contents;
    EXPECT_TRUE(DecodePage(Slice(WithHeader(page, count, 0)), 1024, &contents)
                    .IsCorruption());
  }
}

TEST(PageTest, BuilderResetsAfterFinish) {
  PageBuilder builder(1024, 4);
  ASSERT_TRUE(builder.Add(MakeEntry("a", 1, 1, "v")));
  builder.Finish();
  EXPECT_TRUE(builder.empty());
  ASSERT_TRUE(builder.Add(MakeEntry("b", 1, 2, "v")));
  std::string page = builder.Finish();
  PageContents contents;
  ASSERT_TRUE(DecodePage(Slice(page), 1024, &contents).ok());
  ASSERT_EQ(contents.entries.size(), 1u);
  EXPECT_EQ(contents.entries[0].user_key.ToString(), "b");
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1000; i++) {
    builder.AddKey(EncodeKey(i * 7919));
  }
  std::string filter_data = builder.Finish();
  BloomFilter filter(filter_data);
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(filter.KeyMayMatch(EncodeKey(i * 7919))) << i;
  }
}

TEST(BloomTest, FalsePositiveRateNearTheory) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; i++) {
    builder.AddKey(EncodeKey(i));
  }
  std::string filter_data = builder.Finish();
  BloomFilter filter(filter_data);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; i++) {
    if (filter.KeyMayMatch(EncodeKey(1000000 + i))) {
      fp++;
    }
  }
  double rate = static_cast<double>(fp) / probes;
  // 10 bits/key → ~0.8-1.2% theoretical; allow generous headroom.
  EXPECT_LT(rate, 0.03);
  EXPECT_GT(rate, 0.0001);
}

TEST(BloomTest, EmptyFilterMatchesNothing) {
  BloomFilterBuilder builder(10);
  std::string filter_data = builder.Finish();
  BloomFilter filter(filter_data);
  EXPECT_FALSE(filter.KeyMayMatch(Slice("anything")));
}

TEST(RangeTombstoneTest, EncodeDecodeRoundTrip) {
  std::vector<RangeTombstone> tombstones;
  for (int i = 0; i < 5; i++) {
    RangeTombstone t;
    t.begin_key = EncodeKey(i * 100);
    t.end_key = EncodeKey(i * 100 + 50);
    t.seq = 1000 + i;
    t.time = 777 + i;
    tombstones.push_back(t);
  }
  std::string block;
  EncodeRangeTombstones(tombstones, &block);
  std::vector<RangeTombstone> decoded;
  ASSERT_TRUE(DecodeRangeTombstones(Slice(block), &decoded).ok());
  ASSERT_EQ(decoded.size(), 5u);
  EXPECT_EQ(decoded[3].begin_key, EncodeKey(300));
  EXPECT_EQ(decoded[3].seq, 1003u);
  EXPECT_EQ(decoded[3].time, 780u);
}

TEST(RangeTombstoneTest, CoversRespectsSeqAndBounds) {
  RangeTombstoneSet set;
  RangeTombstone t;
  t.begin_key = "b";
  t.end_key = "d";
  t.seq = 100;
  set.Add(t);

  EXPECT_TRUE(set.Covers(Slice("b"), 50));    // inclusive begin
  EXPECT_TRUE(set.Covers(Slice("c"), 99));
  EXPECT_FALSE(set.Covers(Slice("c"), 100));  // same seq not covered
  EXPECT_FALSE(set.Covers(Slice("c"), 150));  // newer than tombstone
  EXPECT_FALSE(set.Covers(Slice("d"), 50));   // exclusive end
  EXPECT_FALSE(set.Covers(Slice("a"), 50));
}

TEST(RangeTombstoneTest, MaxCoverSeqOverlapping) {
  RangeTombstoneSet set;
  RangeTombstone t1{"a", "m", 10, 0};
  RangeTombstone t2{"c", "f", 30, 0};
  RangeTombstone t3{"e", "z", 20, 0};
  set.Add(t1);
  set.Add(t3);
  set.Add(t2);
  EXPECT_EQ(set.MaxCoverSeq(Slice("b")), 10u);
  EXPECT_EQ(set.MaxCoverSeq(Slice("d")), 30u);
  EXPECT_EQ(set.MaxCoverSeq(Slice("e")), 30u);
  EXPECT_EQ(set.MaxCoverSeq(Slice("g")), 20u);
  EXPECT_EQ(set.MaxCoverSeq(Slice("zz")), 0u);
}

TEST(RangeTombstoneTest, AddAllMatchesRepeatedAdd) {
  // The bulk-append + stable-sort AddAll must leave the set answering
  // identically to per-element Add (including duplicate begin keys).
  std::vector<RangeTombstone> tombstones = {
      {"m", "q", 5, 0}, {"a", "c", 9, 0},  {"a", "f", 2, 0},
      {"m", "n", 7, 0}, {"b", "zz", 4, 0}, {"a", "c", 1, 0},
  };
  RangeTombstoneSet bulk;
  bulk.AddAll(tombstones);
  RangeTombstoneSet incremental;
  for (const RangeTombstone& t : tombstones) {
    incremental.Add(t);
  }
  ASSERT_EQ(bulk.size(), incremental.size());
  for (char c = 'a'; c <= 'z'; c++) {
    const std::string key(1, c);
    for (SequenceNumber seq = 0; seq <= 10; seq++) {
      EXPECT_EQ(bulk.Covers(key, seq), incremental.Covers(key, seq));
      EXPECT_EQ(bulk.MaxCoverSeq(key, seq), incremental.MaxCoverSeq(key, seq));
      EXPECT_EQ(bulk.MinCoverSeqAbove(key, seq),
                incremental.MinCoverSeqAbove(key, seq));
    }
  }
}

// Every fragmented query must be bit-identical to the naive linear walk;
// checks all three queries over the full (key, seq, max_seq) grid.
void CheckFragmentedMatchesNaive(const std::vector<RangeTombstone>& tombstones,
                                 const std::vector<std::string>& probe_keys,
                                 SequenceNumber max_probe_seq) {
  RangeTombstoneSet naive;
  naive.AddAll(tombstones);
  FragmentedRangeTombstoneList frag(tombstones);
  for (const std::string& key : probe_keys) {
    for (SequenceNumber seq = 0; seq <= max_probe_seq; seq++) {
      EXPECT_EQ(frag.MaxCoverSeq(key, seq), naive.MaxCoverSeq(key, seq))
          << "MaxCoverSeq key=" << key << " max_seq=" << seq;
      EXPECT_EQ(frag.MinCoverSeqAbove(key, seq),
                naive.MinCoverSeqAbove(key, seq))
          << "MinCoverSeqAbove key=" << key << " seq=" << seq;
      for (SequenceNumber bound = seq; bound <= max_probe_seq; bound++) {
        ASSERT_EQ(frag.Covers(key, seq, bound), naive.Covers(key, seq, bound))
            << "Covers key=" << key << " seq=" << seq << " bound=" << bound;
      }
    }
  }
}

std::vector<std::string> ProbeAlphabet() {
  // Probes land on boundaries, between them, before the first, and past the
  // last — plus multi-char keys that sort inside single-char gaps.
  std::vector<std::string> keys;
  for (char c = 'a'; c <= 'z'; c++) {
    keys.emplace_back(1, c);
    keys.push_back(std::string(1, c) + "m");
  }
  return keys;
}

TEST(FragmentedRangeTombstoneTest, AdversarialShapes) {
  // Nested: each tombstone strictly inside the previous.
  CheckFragmentedMatchesNaive(
      {{"a", "z", 1, 0}, {"b", "y", 2, 0}, {"c", "x", 3, 0}, {"d", "w", 4, 0}},
      ProbeAlphabet(), 6);
  // Staircase: overlapping shingles.
  CheckFragmentedMatchesNaive(
      {{"a", "e", 4, 0}, {"c", "g", 3, 0}, {"e", "i", 2, 0}, {"g", "k", 1, 0}},
      ProbeAlphabet(), 6);
  // Duplicate boundaries, duplicate seqs, identical ranges.
  CheckFragmentedMatchesNaive(
      {{"b", "f", 5, 0}, {"b", "f", 3, 0}, {"b", "d", 5, 0}, {"d", "f", 2, 0}},
      ProbeAlphabet(), 7);
  // Point-width ([k, k+suffix)) and empty/inverted ranges (cover nothing).
  CheckFragmentedMatchesNaive(
      {{"c", std::string("c") + '\0', 4, 0},
       {"e", "e", 9, 0},
       {"g", "b", 8, 0},
       {"a", "d", 2, 0}},
      ProbeAlphabet(), 10);
  // Disjoint with gaps: probes in the gaps must miss.
  CheckFragmentedMatchesNaive({{"a", "b", 1, 0}, {"e", "f", 2, 0}},
                              ProbeAlphabet(), 4);
}

TEST(FragmentedRangeTombstoneTest, EmptyAndSingle) {
  FragmentedRangeTombstoneList empty_frag{std::vector<RangeTombstone>{}};
  EXPECT_TRUE(empty_frag.empty());
  EXPECT_EQ(empty_frag.num_fragments(), 0u);
  EXPECT_FALSE(empty_frag.Covers("a", 0));
  EXPECT_EQ(empty_frag.MaxCoverSeq("a"), 0u);
  EXPECT_EQ(empty_frag.MinCoverSeqAbove("a", 0), 0u);

  FragmentedRangeTombstoneList one({{"b", "d", 10, 0}});
  EXPECT_EQ(one.num_fragments(), 1u);
  EXPECT_TRUE(one.Covers("b", 5));
  EXPECT_FALSE(one.Covers("d", 5));  // exclusive end
  EXPECT_GT(one.ApproximateMemoryUsage(), 0u);
}

TEST(FragmentedRangeTombstoneTest, RandomizedDifferential) {
  // Adversarial random piles: many tombstones over a tiny keyspace so
  // overlap is dense, with random widths including point-width and
  // occasional inverted (empty) ranges.
  for (uint64_t seed = 1; seed <= 8; seed++) {
    Random rnd(seed * 7919);
    std::vector<RangeTombstone> tombstones;
    const size_t n = 20 + rnd.Uniform(80);
    for (size_t i = 0; i < n; i++) {
      const char b = static_cast<char>('a' + rnd.Uniform(24));
      char e = static_cast<char>('a' + rnd.Uniform(26));
      if (rnd.Bernoulli(0.15)) {
        e = b;  // point/empty width after the exclusive end
      }
      RangeTombstone t;
      t.begin_key = std::string(1, b);
      t.end_key = std::string(1, e);
      if (rnd.Bernoulli(0.3)) {
        t.end_key += "m";  // boundary between single-char probe keys
      }
      t.seq = 1 + rnd.Uniform(12);  // dense seq collisions
      tombstones.push_back(std::move(t));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    CheckFragmentedMatchesNaive(tombstones, ProbeAlphabet(), 14);
  }
}

TEST(FileMetaTest, EncodeDecodeRoundTrip) {
  FileMeta meta;
  meta.file_number = 42;
  meta.file_size = 123456;
  meta.run_id = 7;
  meta.num_entries = 1000;
  meta.num_point_tombstones = 50;
  meta.num_range_tombstones = 2;
  meta.smallest_key = "aaa";
  meta.largest_key = "zzz";
  meta.min_delete_key = 100;
  meta.max_delete_key = 900;
  meta.smallest_seq = 1;
  meta.largest_seq = 1000;
  meta.oldest_tombstone_time = 55555;
  meta.num_pages = 16;
  meta.DropPage(3);
  meta.DropPage(9);
  meta.page_live_entries.assign(16, 64);
  meta.page_live_tombstones.assign(16, 4);

  std::string buf;
  EncodeFileMeta(meta, &buf);
  Slice input(buf);
  FileMeta decoded;
  ASSERT_TRUE(DecodeFileMeta(&input, &decoded).ok());
  EXPECT_EQ(decoded.file_number, 42u);
  EXPECT_EQ(decoded.run_id, 7u);
  EXPECT_EQ(decoded.num_pages, 16u);
  EXPECT_EQ(decoded.dropped_page_count, 2u);
  EXPECT_TRUE(decoded.IsPageDropped(3));
  EXPECT_TRUE(decoded.IsPageDropped(9));
  EXPECT_FALSE(decoded.IsPageDropped(4));
  EXPECT_EQ(decoded.page_live_entries.size(), 16u);
  EXPECT_EQ(decoded.oldest_tombstone_time, 55555u);
}

// One MANIFEST record, as the encoder wrote it before FileMeta::expiry_due
// existed: a removal, one added file, the counters and a checkpoint.
const char kEditWithoutDueTime[] =
    "\x01\x01\x07\x02\x01\x09\x80\x20\x00\x0c\x02\x00\x05\x61\x70\x70\x6c"
    "\x65\x05\x6d\x65\x6c\x6f\x6e\x03\x00\x00\x00\x00\x00\x00\x00\x28\x00"
    "\x00\x00\x00\x00\x00\x00\x64\x00\x00\x00\x00\x00\x00\x00\x6f\x00\x00"
    "\x00\x00\x00\x00\x00\x88\x13\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00"
    "\x00\x03\x0a\x04\x6f\x05\x08\x06\x64\xa0\x0f\x00\x00\x00\x00\x00\x00";
constexpr size_t kEditWithoutDueTimeBytes = 85;

VersionEdit EditWithoutDueTime() {
  VersionEdit edit;
  edit.removed_files.push_back({1, 7});
  FileMeta meta;
  meta.file_number = 9;
  meta.file_size = 4096;
  meta.num_entries = 12;
  meta.num_point_tombstones = 2;
  meta.smallest_key = "apple";
  meta.largest_key = "melon";
  meta.min_delete_key = 3;
  meta.max_delete_key = 40;
  meta.smallest_seq = 100;
  meta.largest_seq = 111;
  meta.oldest_tombstone_time = 5000;
  meta.num_pages = 3;
  edit.added_files.emplace_back(1, meta);
  edit.next_file_number = 10;
  edit.last_sequence = 111;
  edit.wal_number = 8;
  edit.seq_time_checkpoints.emplace_back(100, 4000);
  return edit;
}

// Files without a due time add no byte to an edit, so a MANIFEST written
// without expiring values is what it was before the tag, and an old
// MANIFEST record decodes with no due time.
TEST(VersionEditTest, EditWithoutDueTimeKeepsItsBytes) {
  const std::string old_bytes(kEditWithoutDueTime, kEditWithoutDueTimeBytes);
  std::string buf;
  EditWithoutDueTime().EncodeTo(&buf);
  EXPECT_EQ(buf.size(), kEditWithoutDueTimeBytes);
  EXPECT_EQ(buf, old_bytes);

  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(old_bytes)).ok());
  ASSERT_EQ(decoded.added_files.size(), 1u);
  const FileMeta& meta = decoded.added_files[0].second;
  EXPECT_EQ(meta.file_number, 9u);
  EXPECT_EQ(meta.largest_key, "melon");
  EXPECT_EQ(meta.expiry_due, FileMeta::kNever);
  EXPECT_EQ(decoded.next_file_number, std::optional<uint64_t>(10));
  EXPECT_EQ(decoded.seq_time_checkpoints.size(), 1u);
}

TEST(VersionEditTest, DueTimeRoundTrips) {
  VersionEdit edit = EditWithoutDueTime();
  edit.added_files[0].second.expiry_due = 1'700'000'000'000'000;
  FileMeta second = edit.added_files[0].second;
  second.file_number = 11;
  second.expiry_due = FileMeta::kNever;
  edit.added_files.emplace_back(2, second);
  std::string buf;
  edit.EncodeTo(&buf);

  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(buf)).ok());
  ASSERT_EQ(decoded.added_files.size(), 2u);
  EXPECT_EQ(decoded.added_files[0].second.file_number, 9u);
  EXPECT_EQ(decoded.added_files[0].second.expiry_due,
            1'700'000'000'000'000u);
  EXPECT_EQ(decoded.added_files[1].second.file_number, 11u);
  EXPECT_EQ(decoded.added_files[1].second.expiry_due, FileMeta::kNever);
  std::string again;
  decoded.EncodeTo(&again);
  EXPECT_EQ(again, buf);

  // A due time follows the file it belongs to.
  VersionEdit only_due;
  std::string orphan;
  PutVarint32(&orphan, 8);  // the expiry-due tag
  PutVarint64(&orphan, 1);
  EXPECT_TRUE(only_due.DecodeFrom(Slice(orphan)).IsCorruption());
}

TEST(FileMetaTest, TombstoneAgeAndOverlap) {
  FileMeta meta;
  meta.smallest_key = EncodeKey(100);
  meta.largest_key = EncodeKey(200);
  meta.min_delete_key = 10;
  meta.max_delete_key = 20;
  EXPECT_EQ(meta.TombstoneAge(12345), 0u);  // no tombstones

  meta.num_point_tombstones = 1;
  meta.oldest_tombstone_time = 1000;
  EXPECT_EQ(meta.TombstoneAge(1500), 500u);
  EXPECT_EQ(meta.TombstoneAge(500), 0u);  // clock behind: clamp

  EXPECT_TRUE(meta.OverlapsKeyRange(Slice(EncodeKey(150)),
                                    Slice(EncodeKey(160))));
  EXPECT_TRUE(
      meta.OverlapsKeyRange(Slice(EncodeKey(50)), Slice(EncodeKey(100))));
  EXPECT_FALSE(
      meta.OverlapsKeyRange(Slice(EncodeKey(201)), Slice(EncodeKey(300))));

  EXPECT_TRUE(meta.OverlapsDeleteKeyRange(15, 30));
  EXPECT_TRUE(meta.OverlapsDeleteKeyRange(20, 21));
  EXPECT_FALSE(meta.OverlapsDeleteKeyRange(21, 30));
  EXPECT_FALSE(meta.OverlapsDeleteKeyRange(0, 10));
}

// ---------------------------------------------------------------------------
// SSTable builder/reader.

class SSTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.page_size_bytes = 4096;
    options_.entries_per_page = 8;
    options_.pages_per_tile = 4;
    options_.bloom_bits_per_key = 10;
  }

  /// Builds a table with `n` entries: key i → EncodeKey(i), delete key
  /// derived per `dk_of`, value ValueOf(i). Returns the reader.
  std::unique_ptr<SSTableReader> BuildTable(
      int n, uint64_t (*dk_of)(int), TableProperties* props_out = nullptr,
      const std::vector<RangeTombstone>& rts = {}) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile("table", &file).ok());
    SSTableBuilder builder(options_, file.get());
    for (int i = 0; i < n; i++) {
      builder.Add(MakeEntry(EncodeKey(i), dk_of(i), 1000 + i, ValueOf(i)));
    }
    for (const RangeTombstone& rt : rts) {
      builder.AddRangeTombstone(rt);
    }
    TableProperties props;
    EXPECT_TRUE(builder.Finish(&props).ok());
    EXPECT_TRUE(file->Close().ok());
    if (props_out != nullptr) {
      *props_out = props;
    }

    std::unique_ptr<RandomAccessFile> read_file;
    EXPECT_TRUE(env_->NewRandomAccessFile("table", &read_file).ok());
    std::unique_ptr<SSTableReader> reader;
    EXPECT_TRUE(SSTableReader::Open(options_, std::move(read_file),
                                    props.file_size, &reader)
                    .ok());
    return reader;
  }

  /// "value-i", padded with 'x' to value_size_ bytes unless small_of_(i).
  std::string ValueOf(int i) const {
    std::string value = "value-" + std::to_string(i);
    const bool small = small_of_ != nullptr && small_of_(i);
    if (!small && value_size_ > value.size()) {
      value.resize(value_size_, 'x');
    }
    return value;
  }

  /// Every key 0..n-1 reads back through Get, and the iterator yields
  /// exactly those n keys in order.
  void ExpectRoundTrip(SSTableReader& reader, int n) {
    Statistics stats;
    for (int i = 0; i < n; i++) {
      bool found = false;
      TableGetResult result;
      ASSERT_TRUE(
          reader.Get(EncodeKey(i), nullptr, &stats, &found, &result).ok());
      ASSERT_TRUE(found) << "key " << i;
      EXPECT_EQ(result.value, ValueOf(i));
    }
    auto it = reader.NewIterator(nullptr);
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ASSERT_EQ(it->entry().user_key.ToString(), EncodeKey(count));
      count++;
    }
    EXPECT_TRUE(it->status().ok());
    EXPECT_EQ(count, n);
  }

  static uint64_t ReverseDk(int i) { return 1000000 - i; }
  static uint64_t IdentityDk(int i) { return static_cast<uint64_t>(i); }

  std::unique_ptr<Env> env_;
  TableOptions options_;
  size_t value_size_ = 0;
  bool (*small_of_)(int) = nullptr;
};

TEST_F(SSTableTest, PropertiesReflectContents) {
  TableProperties props;
  auto reader = BuildTable(100, ReverseDk, &props);
  EXPECT_EQ(props.num_entries, 100u);
  EXPECT_EQ(props.num_pages, 13u);  // ceil(100/8)
  EXPECT_EQ(props.num_tiles, 4u);   // ceil(13/4)
  EXPECT_EQ(props.smallest_key, EncodeKey(0));
  EXPECT_EQ(props.largest_key, EncodeKey(99));
  EXPECT_EQ(props.min_delete_key, 1000000u - 99u);
  EXPECT_EQ(props.max_delete_key, 1000000u);
  EXPECT_EQ(reader->num_pages(), 13u);
  EXPECT_EQ(reader->num_tiles(), 4u);
}

TEST_F(SSTableTest, GetFindsEveryKey) {
  auto reader = BuildTable(200, ReverseDk);
  Statistics stats;
  for (int i = 0; i < 200; i++) {
    bool found = false;
    TableGetResult result;
    ASSERT_TRUE(
        reader->Get(EncodeKey(i), nullptr, &stats, &found, &result).ok());
    ASSERT_TRUE(found) << "key " << i;
    EXPECT_EQ(result.value, ValueOf(i));
    EXPECT_EQ(result.delete_key, ReverseDk(i));
    EXPECT_EQ(result.seq, 1000u + i);
  }
  EXPECT_GT(stats.bloom_probes.load(), 0u);
}

TEST_F(SSTableTest, GetMissesAbsentKeys) {
  auto reader = BuildTable(100, ReverseDk);
  Statistics stats;
  for (int i = 100; i < 200; i++) {
    bool found = true;
    TableGetResult result;
    ASSERT_TRUE(
        reader->Get(EncodeKey(i), nullptr, &stats, &found, &result).ok());
    EXPECT_FALSE(found);
  }
}

TEST_F(SSTableTest, IteratorYieldsAllKeysInOrder) {
  auto reader = BuildTable(150, ReverseDk);
  auto it = reader->NewIterator(nullptr);
  int expected = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->entry().user_key.ToString(), EncodeKey(expected));
    expected++;
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(expected, 150);
}

TEST_F(SSTableTest, IteratorSeek) {
  auto reader = BuildTable(100, ReverseDk);
  auto it = reader->NewIterator(nullptr);
  it->Seek(Slice(EncodeKey(42)));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().user_key.ToString(), EncodeKey(42));
  it->Seek(Slice(EncodeKey(99)));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().user_key.ToString(), EncodeKey(99));
  it->Seek(Slice(EncodeKey(100)));
  EXPECT_FALSE(it->Valid());
}

TEST_F(SSTableTest, DeleteTilesPartitionDeleteKeys) {
  // With reverse delete keys, pages within each tile must be ordered by
  // delete key even though entries arrive in ascending sort-key order.
  auto reader = BuildTable(128, ReverseDk);
  for (const TileInfo& tile : reader->tiles()) {
    for (uint32_t p = tile.first_page + 1;
         p < tile.first_page + tile.page_count; p++) {
      EXPECT_GE(reader->pages()[p].min_delete_key,
                reader->pages()[p - 1].max_delete_key)
          << "pages within a tile must partition the delete-key space";
    }
  }
}

TEST_F(SSTableTest, PagesSortedInternallyBySortKey) {
  auto reader = BuildTable(128, ReverseDk);
  for (uint32_t p = 0; p < reader->num_pages(); p++) {
    PageHandle contents;
    ASSERT_TRUE(reader->ReadPage(p, &contents).ok());
    for (size_t i = 1; i < contents->entries.size(); i++) {
      EXPECT_LT(contents->entries[i - 1].user_key.compare(
                    contents->entries[i].user_key),
                0);
    }
  }
}

TEST_F(SSTableTest, ClassicLayoutWithH1) {
  options_.pages_per_tile = 1;
  auto reader = BuildTable(64, ReverseDk);
  EXPECT_EQ(reader->num_tiles(), reader->num_pages());
  // Every page holds a contiguous run of the sort-key space.
  for (uint32_t p = 1; p < reader->num_pages(); p++) {
    EXPECT_LT(reader->pages()[p - 1].max_sort_key.compare(
                  reader->pages()[p].min_sort_key),
              0);
  }
}

TEST_F(SSTableTest, SecondaryDeletePlanSeparatesFullAndPartial) {
  // Delete keys equal sort order: tile t covers delete keys
  // [t*32, (t+1)*32). Deleting [32, 64) should fully drop tile 1's pages.
  auto reader = BuildTable(128, IdentityDk);
  SecondaryDeletePlan plan;
  reader->PlanSecondaryRangeDelete({{32, 64}}, {{32, 64}}, nullptr, &plan);
  EXPECT_EQ(plan.full_drop_pages.size(), 4u);  // one whole tile (4 pages)
  EXPECT_TRUE(plan.partial_pages.empty());

  // A range splitting pages: [36, 60) covers pages partially at the edges.
  reader->PlanSecondaryRangeDelete({{36, 60}}, {{36, 60}}, nullptr, &plan);
  uint64_t full = plan.full_drop_pages.size();
  uint64_t partial = plan.partial_pages.size();
  EXPECT_EQ(full, 2u);     // pages [40,48) and [48,56)
  EXPECT_EQ(partial, 2u);  // pages [32,40) and [56,64)
}

// A batch plans the union of its deletes, bounded by sequence: a page drops
// whole only under ranges issued after the table's newest entry.
TEST_F(SSTableTest, SecondaryDeletePlanTakesTheUnionOfABatch) {
  auto reader = BuildTable(128, IdentityDk);
  const SecondaryDeleteSet batch({{32, 48, /*seq=*/10}, {48, 64, /*seq=*/20}});
  EXPECT_TRUE(batch.Hides(40, 10));
  EXPECT_FALSE(batch.Hides(40, 11));  // written after the delete
  EXPECT_TRUE(batch.Hides(63, 20));
  EXPECT_FALSE(batch.Hides(64, 1));

  // Adjacent deletes merge: tile 1 drops whole though neither covers it.
  const DeleteKeyIntervals both = batch.IntervalsAtOrAbove(0);
  ASSERT_EQ(both, (DeleteKeyIntervals{{32, 64}}));
  SecondaryDeletePlan plan;
  reader->PlanSecondaryRangeDelete(both, both, nullptr, &plan);
  EXPECT_EQ(plan.full_drop_pages.size(), 4u);
  EXPECT_TRUE(plan.partial_pages.empty());

  // A table whose newest entry is at seq 15: only the second delete removes
  // all of it, so the first one's pages are read and filtered.
  reader->PlanSecondaryRangeDelete(batch.IntervalsAtOrAbove(15), both, nullptr,
                                   &plan);
  EXPECT_EQ(plan.full_drop_pages.size(), 2u);  // pages [48,56) and [56,64)
  EXPECT_EQ(plan.partial_pages.size(), 2u);    // pages [32,40) and [40,48)
}

TEST_F(SSTableTest, PlanSkipsDroppedPages) {
  auto reader = BuildTable(128, IdentityDk);
  FileMeta meta;
  meta.num_pages = reader->num_pages();
  SecondaryDeletePlan plan;
  reader->PlanSecondaryRangeDelete({{32, 64}}, {{32, 64}}, &meta, &plan);
  ASSERT_EQ(plan.full_drop_pages.size(), 4u);
  meta.DropPage(plan.full_drop_pages[0]);
  reader->PlanSecondaryRangeDelete({{32, 64}}, {{32, 64}}, &meta, &plan);
  EXPECT_EQ(plan.full_drop_pages.size(), 3u);
}

TEST_F(SSTableTest, GetSkipsDroppedPages) {
  auto reader = BuildTable(128, IdentityDk);
  FileMeta meta;
  meta.num_pages = reader->num_pages();
  // Key 40 lives in the page covering delete keys [40, 48) (identity dk).
  SecondaryDeletePlan plan;
  reader->PlanSecondaryRangeDelete({{40, 48}}, {{40, 48}}, nullptr, &plan);
  ASSERT_EQ(plan.full_drop_pages.size(), 1u);
  meta.DropPage(plan.full_drop_pages[0]);

  Statistics stats;
  bool found = true;
  TableGetResult result;
  ASSERT_TRUE(
      reader->Get(EncodeKey(40), &meta, &stats, &found, &result).ok());
  EXPECT_FALSE(found);
  // A key in a live page of the same tile is still visible.
  ASSERT_TRUE(
      reader->Get(EncodeKey(33), &meta, &stats, &found, &result).ok());
  EXPECT_TRUE(found);
}

TEST_F(SSTableTest, RangeTombstonesPersisted) {
  std::vector<RangeTombstone> rts;
  RangeTombstone rt;
  rt.begin_key = EncodeKey(10);
  rt.end_key = EncodeKey(20);
  rt.seq = 5000;
  rt.time = 123;
  rts.push_back(rt);
  TableProperties props;
  auto reader = BuildTable(50, ReverseDk, &props, rts);
  ASSERT_EQ(reader->range_tombstones().size(), 1u);
  EXPECT_EQ(reader->range_tombstones()[0].begin_key, EncodeKey(10));
  EXPECT_EQ(props.num_range_tombstones, 1u);
  EXPECT_EQ(props.oldest_range_tombstone_time, 123u);
}

TEST_F(SSTableTest, KeyMayExistFilterOnly) {
  auto reader = BuildTable(100, ReverseDk);
  Statistics stats;
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(reader->KeyMayExist(EncodeKey(i), nullptr, &stats));
  }
  int positives = 0;
  for (int i = 1000; i < 2000; i++) {
    positives += reader->KeyMayExist(EncodeKey(i), nullptr, &stats) ? 1 : 0;
  }
  EXPECT_LT(positives, 100);  // mostly filtered out
}

TEST_F(SSTableTest, CorruptFooterRejected) {
  TableProperties props;
  BuildTable(10, ReverseDk, &props);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "table", &contents).ok());
  contents[contents.size() - 1] ^= 0xff;  // clobber magic
  ASSERT_TRUE(WriteStringToFile(env_.get(), contents, "table").ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile("table", &file).ok());
  std::unique_ptr<SSTableReader> reader;
  EXPECT_TRUE(SSTableReader::Open(options_, std::move(file), contents.size(),
                                  &reader)
                  .IsCorruption());
}

TEST_F(SSTableTest, EmptyTableRoundTrip) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile("empty", &file).ok());
  SSTableBuilder builder(options_, file.get());
  TableProperties props;
  ASSERT_TRUE(builder.Finish(&props).ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(props.num_entries, 0u);
  EXPECT_EQ(props.num_pages, 0u);

  std::unique_ptr<RandomAccessFile> read_file;
  ASSERT_TRUE(env_->NewRandomAccessFile("empty", &read_file).ok());
  std::unique_ptr<SSTableReader> reader;
  ASSERT_TRUE(SSTableReader::Open(options_, std::move(read_file),
                                  props.file_size, &reader)
                  .ok());
  auto it = reader->NewIterator(nullptr);
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST(SSTableRewriteTest, ConcurrentReadsNeverSeeATornPage) {
  // On a real file a read racing an in-place write of the same page can
  // return a mix of old and new bytes. RewritePage must exclude ReadPage,
  // so every read decodes one whole page image or the other.
  Env* env = Env::Default();
  std::string dir = "/tmp/lethe_rewrite_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string fname = dir + "/table";

  TableOptions options;
  options.entries_per_page = 8;
  const std::string value(400, 'v');
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  SSTableBuilder builder(options, file.get());
  PageBuilder full(options.page_size_bytes, options.entries_per_page);
  PageBuilder half(options.page_size_bytes, options.entries_per_page);
  for (int i = 0; i < 8; i++) {
    const std::string key = EncodeKey(i);
    const ParsedEntry entry = MakeEntry(key, i, 100 + i, value);
    builder.Add(entry);
    ASSERT_TRUE(full.Add(entry));
    if (i % 2 == 0) {
      ASSERT_TRUE(half.Add(entry));
    }
  }
  TableProperties props;
  ASSERT_TRUE(builder.Finish(&props).ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_EQ(props.num_pages, 1u);
  const std::string images[2] = {full.Finish(), half.Finish()};

  std::unique_ptr<RandomAccessFile> read_file;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &read_file).ok());
  std::unique_ptr<SSTableReader> reader;
  ASSERT_TRUE(SSTableReader::Open(options, std::move(read_file),
                                  props.file_size, &reader)
                  .ok());
  std::unique_ptr<RandomWriteFile> writer;
  ASSERT_TRUE(env->NewRandomWriteFile(fname, &writer).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};
  std::thread rewriter([&] {
    for (int i = 0; !stop.load(); i++) {
      if (!reader->RewritePage(writer.get(), 0, images[i % 2]).ok()) {
        write_failures.fetch_add(1);
      }
    }
  });
  int failed_reads = 0;
  for (int i = 0; i < 20000; i++) {
    PageHandle page;
    if (!reader->ReadPage(0, &page).ok()) {
      failed_reads++;
    }
  }
  stop.store(true);
  rewriter.join();
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(failed_reads, 0);

  ASSERT_TRUE(writer->Close().ok());
  reader.reset();
  ASSERT_TRUE(env->RemoveFile(fname).ok());
  rmdir(dir.c_str());
}

/// Parameterized sweep: the weave must round-trip for every delete-tile
/// granularity, including h larger than the page count.
class SSTableTileSweepTest : public SSTableTest,
                             public ::testing::WithParamInterface<uint32_t> {};

TEST_P(SSTableTileSweepTest, RoundTripAllGranularities) {
  options_.pages_per_tile = GetParam();
  auto reader = BuildTable(300, ReverseDk);
  SCOPED_TRACE("h=" + std::to_string(GetParam()));
  ExpectRoundTrip(*reader, 300);
}

INSTANTIATE_TEST_SUITE_P(TileGranularities, SSTableTileSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256));

/// Byte-closed tiles: 16-byte keys, 3-byte sequence and delete-key varints
/// and 124-byte values encode to 148 bytes. The keys of a page of
/// neighbouring keys share a 13- or 14-byte prefix, so each entry stores
/// 135 or 134 bytes and only 30 of B = 32 fit a 4 KB page's 4092-byte
/// budget.
class ByteClosedTileTest : public SSTableTest {
 protected:
  void SetUp() override {
    SSTableTest::SetUp();
    options_.entries_per_page = 32;
    value_size_ = 124;
  }
};

TEST_F(ByteClosedTileTest, H1TileIsOnePage) {
  options_.pages_per_tile = 1;
  TableProperties props;
  auto reader = BuildTable(1000, ReverseDk, &props);
  // Counting to B alone would write each 32-entry tile as 30 + 2 entries.
  EXPECT_EQ(props.num_pages, 34u);  // ceil(1000/30)
  EXPECT_EQ(props.num_tiles, 34u);
  for (const TileInfo& tile : reader->tiles()) {
    EXPECT_EQ(tile.page_count, 1u);
  }
  ExpectRoundTrip(*reader, 1000);
}

TEST_F(ByteClosedTileTest, H8TileSpansAtMostHPages) {
  options_.pages_per_tile = 8;
  TableProperties props;
  auto reader = BuildTable(1000, ReverseDk, &props);
  for (const TileInfo& tile : reader->tiles()) {
    EXPECT_LE(tile.page_count, 8u);
  }
  // Within 1 page per tile of the densest packing (30 entries a page).
  EXPECT_LE(props.num_pages, 34u + props.num_tiles);
  ExpectRoundTrip(*reader, 1000);
}

TEST_F(ByteClosedTileTest, MixedSizesStayWithinHPages) {
  // Some entries are ~33 bytes (~19 stored), like tombstones among the
  // 148-byte ones (~134 stored). A page holding 2 or more of them closes at
  // B = 32 entries, short of its byte budget; the others close at the
  // budget. A bound on the tile's
  // bytes alone lets a tile whose light pages come first spill onto page
  // h+1: with identity delete keys and 5 small entries opening every run
  // of 64, an h = 2 tile of 63 entries packs as 32 + 30 + 1.
  const std::vector<bool (*)(int)> shapes = {
      [](int i) { return i % 64 < 5; },
      [](int i) {  // a pseudo-random tenth
        return (static_cast<uint64_t>(i) * 2654435761u >> 8) % 10 == 0;
      },
  };
  // The default (uncapped) B with 1 KB values: a tile of small entries
  // alone would hold hundreds, so neither B nor h·B bounds it; the byte
  // rule must.
  struct Layout {
    uint32_t b;
    size_t value_size;
  };
  for (Layout layout : {Layout{32, 124},
                        Layout{TableOptions().entries_per_page, 1024}}) {
    options_.entries_per_page = layout.b;
    value_size_ = layout.value_size;
    for (size_t s = 0; s < shapes.size(); s++) {
      small_of_ = shapes[s];
      for (uint32_t h : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("B=" + std::to_string(layout.b) + " shape " +
                     std::to_string(s) + " h=" + std::to_string(h));
        options_.pages_per_tile = h;
        auto reader = BuildTable(3000, IdentityDk);
        for (const TileInfo& tile : reader->tiles()) {
          EXPECT_LE(tile.page_count, h);
        }
        ExpectRoundTrip(*reader, 3000);
      }
    }
  }
}

TEST_F(ByteClosedTileTest, SecondaryDeleteStillDropsWholePages) {
  options_.pages_per_tile = 8;
  auto reader = BuildTable(1000, IdentityDk);
  ASSERT_GE(reader->tiles().size(), 2u);
  // Identity delete keys: tile 1's pages cover one contiguous dk range.
  const TileInfo& tile = reader->tiles()[1];
  const uint32_t last = tile.first_page + tile.page_count - 1;
  const uint64_t lo = reader->pages()[tile.first_page].min_delete_key;
  const uint64_t hi = reader->pages()[last].max_delete_key + 1;
  SecondaryDeletePlan plan;
  reader->PlanSecondaryRangeDelete({{lo, hi}}, {{lo, hi}}, nullptr, &plan);
  EXPECT_EQ(plan.full_drop_pages.size(), tile.page_count);
  EXPECT_TRUE(plan.partial_pages.empty());

  FileMeta meta;
  meta.num_pages = reader->num_pages();
  for (uint32_t p : plan.full_drop_pages) {
    meta.DropPage(p);
  }
  Statistics stats;
  bool found = true;
  TableGetResult result;
  ASSERT_TRUE(
      reader->Get(EncodeKey(lo), &meta, &stats, &found, &result).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(
      reader->Get(EncodeKey(hi), &meta, &stats, &found, &result).ok());
  EXPECT_TRUE(found);  // first key of tile 2
}

TEST_F(ByteClosedTileTest, FigBedShapeKeepsCountLayout) {
  // The fig benches' shape: B = 16 entries of 138 bytes always fit a page,
  // so pages hold B entries and tiles B·h, by count alone.
  options_.entries_per_page = 16;
  options_.pages_per_tile = 4;
  value_size_ = 104;
  TableProperties props;
  auto reader = BuildTable(1000, ReverseDk, &props);
  EXPECT_EQ(props.num_pages, 63u);  // ceil(1000/16)
  EXPECT_EQ(props.num_tiles, 16u);  // ceil(1000/64)
  ExpectRoundTrip(*reader, 1000);
}

/// The default TableOptions: no count cap, so a page holds as many entries
/// as fit its byte budget. 16-byte keys, 3-byte sequence and delete-key
/// varints and 106-byte values encode to 130 bytes; after a page's 14-byte
/// key prefix each stores 116, so 35 fill 4076 of a 4 KB page's 4092-byte
/// budget. A page whose keys cross a multiple of 256 shares 13 bytes and
/// holds 34 (3993 bytes).
class ByteFilledDefaultTest : public SSTableTest {
 protected:
  void SetUp() override {
    SSTableTest::SetUp();
    options_ = TableOptions();
    value_size_ = 106;
  }

  /// The page's entries, decoded.
  static std::vector<ParsedEntry> PageEntriesOf(const SSTableReader& reader,
                                                uint32_t page,
                                                PageHandle* contents) {
    EXPECT_TRUE(reader.ReadPage(page, contents).ok());
    return std::vector<ParsedEntry>((*contents)->entries.begin(),
                                    (*contents)->entries.end());
  }

  /// True if `page` (decoded entries) has room for `next` within `budget`.
  static bool Takes(const std::vector<ParsedEntry>& page,
                    const ParsedEntry& next, uint64_t budget) {
    PageSizer sizer;
    for (const ParsedEntry& entry : page) {
      EXPECT_TRUE(
          sizer.Add(entry.user_key, EncodedEntrySize(entry), budget));
    }
    return sizer.Add(next.user_key, EncodedEntrySize(next), budget);
  }
};

TEST_F(ByteFilledDefaultTest, PagesFillTheirByteBudget) {
  const uint64_t budget = PageByteBudget(options_);
  for (uint32_t h : {1u, 4u}) {
    SCOPED_TRACE("h=" + std::to_string(h));
    options_.pages_per_tile = h;
    TableProperties props;
    auto reader = BuildTable(2000, ReverseDk, &props);
    for (const TileInfo& tile : reader->tiles()) {
      EXPECT_LE(tile.page_count, h);
      // Every page of a tile but its last was cut because the entry that
      // opened the next page did not fit: the tile's first entry in delete
      // key order, which under ReverseDk is the next page's largest key
      // (its first with h = 1, where a tile is one page in key order).
      for (uint32_t p = tile.first_page;
           p + 1 < tile.first_page + tile.page_count; p++) {
        PageHandle page, next_page;
        const std::vector<ParsedEntry> entries =
            PageEntriesOf(*reader, p, &page);
        const std::vector<ParsedEntry> next =
            PageEntriesOf(*reader, p + 1, &next_page);
        EXPECT_FALSE(Takes(entries, next.back(), budget)) << "page " << p;
      }
    }
    if (h == 1) {
      // One-page tiles close by bytes too, and a tile's page is full: the
      // next key does not fit. Every page but the file's last holds 35
      // entries, or 34 where its prefix is 13 bytes, where B = 4 would have
      // written 500 pages (and whole keys, 31 a page, 65).
      EXPECT_EQ(props.num_pages, 58u);
      for (uint32_t p = 0; p + 1 < props.num_pages; p++) {
        const uint32_t n = reader->pages()[p].num_entries;
        EXPECT_TRUE(n == 34 || n == 35) << "page " << p << ": " << n;
        PageHandle page, next_page;
        EXPECT_FALSE(Takes(PageEntriesOf(*reader, p, &page),
                           PageEntriesOf(*reader, p + 1, &next_page).front(),
                           budget))
            << "page " << p;
      }
    }
    ExpectRoundTrip(*reader, 2000);
  }
}

// Uncapped, B is the most entries a page can physically hold: the byte
// budget, less a header of at most 4 bytes, over the smallest encoded
// entry, which is four one-byte varints.
TEST_F(ByteFilledDefaultTest, DefaultBIsTheSmallestEntryBound) {
  ParsedEntry smallest;
  smallest.type = ValueType::kTombstone;
  EXPECT_EQ(EncodedEntrySize(smallest), kMinEncodedEntrySize);
  EXPECT_EQ(kMinEncodedEntrySize, 4u);
  EXPECT_EQ(MaxEntriesPerPage(options_), 1022u);  // (4092 - 4) / 4
  options_.page_size_bytes = 1024;
  EXPECT_EQ(MaxEntriesPerPage(options_), 254u);  // (1020 - 4) / 4

  // A page of that many smallest entries builds and decodes.
  options_.page_size_bytes = 4096;
  PageBuilder builder(options_.page_size_bytes, MaxEntriesPerPage(options_));
  while (builder.Add(smallest)) {
  }
  EXPECT_EQ(builder.num_entries(), 1022u);
  PageContents contents;
  ASSERT_TRUE(
      DecodePage(Slice(builder.Finish()), options_.page_size_bytes, &contents)
          .ok());
  EXPECT_EQ(contents.entries.size(), 1022u);
}

TEST_F(ByteFilledDefaultTest, ExplicitBStillCapsEveryPage) {
  options_.entries_per_page = 4;
  TableProperties props;
  auto reader = BuildTable(1000, ReverseDk, &props);
  EXPECT_EQ(props.num_pages, 250u);
  for (const PageInfo& page : reader->pages()) {
    EXPECT_EQ(page.num_entries, 4u);
  }
  ExpectRoundTrip(*reader, 1000);
}

TEST_F(ByteFilledDefaultTest, EstimatedSizeTracksPagesWritten) {
  // Compaction cuts its outputs on EstimatedSize, so with an uncapped B the
  // estimate must count the buffered tile's bytes, not n/B pages: a KiWi
  // tile holds up to h pages.
  struct Shape {
    uint32_t b;
    uint32_t h;
  };
  for (Shape shape : {Shape{options_.entries_per_page, 1},
                      Shape{options_.entries_per_page, 8},
                      Shape{16, 4}, Shape{32, 8}}) {
    options_.entries_per_page = shape.b;
    options_.pages_per_tile = shape.h;
    for (int n : {1, 100, 1000, 2500}) {
      SCOPED_TRACE("B=" + std::to_string(shape.b) +
                   " h=" + std::to_string(shape.h) +
                   " n=" + std::to_string(n));
      std::unique_ptr<WritableFile> file;
      ASSERT_TRUE(env_->NewWritableFile("estimate", &file).ok());
      SSTableBuilder builder(options_, file.get());
      for (int i = 0; i < n; i++) {
        builder.Add(MakeEntry(EncodeKey(i), ReverseDk(i), 1 + i, ValueOf(i)));
      }
      const uint64_t estimate = builder.EstimatedSize();
      TableProperties props;
      ASSERT_TRUE(builder.Finish(&props).ok());
      const uint64_t written =
          uint64_t{props.num_pages} * options_.page_size_bytes;
      EXPECT_LE(estimate, written + options_.page_size_bytes);
      EXPECT_GE(estimate + options_.page_size_bytes, written);
    }
  }
}

// ---------------------------------------------------------------------------
// Prefix-compressed pages as SSTableBuilder cuts them.

/// The bytes before the checksum that stored page `page` fills: its header
/// and entries, parsed as the page layout lays them out.
size_t StoredPageBytes(const Slice& page, uint32_t* num_entries) {
  Slice body(page.data(), page.size() - 4);
  uint32_t prefix_size = 0;
  EXPECT_TRUE(GetVarint32(&body, num_entries));
  EXPECT_TRUE(GetVarint32(&body, &prefix_size));
  body.remove_prefix(prefix_size);
  ParsedEntry entry;
  for (uint32_t i = 0; i < *num_entries; i++) {
    EXPECT_TRUE(DecodeEntry(&body, &entry));
  }
  return page.size() - 4 - body.size();
}

// Seeded random key sets whose keys share 0..16 leading bytes (the bare
// shared prefix is sometimes a key of its own, an empty suffix after the
// page prefix), values of 0..200 bytes with some near a page (which then
// sits alone on one), h = 1 and 8, B = 16, 32 and uncapped. Every table
// must decode to the builder's input byte for byte, fill no page past its
// budget (by the page's own stored bytes, which PageSizer counts exactly),
// and span no tile over h pages. Where B whole entries fit a page, the
// cuts must be those of whole-entry accounting: every page B entries and
// every tile B·h, but the last.
TEST(PrefixPageTest, SeededKeySetsRoundTripWithinTheirBudget) {
  Random rnd(4099);
  int count_layouts = 0, one_entry_pages = 0, byte_cut_pages = 0;
  for (int trial = 0; trial < 24; trial++) {
    const uint64_t page_size = trial % 2 == 0 ? 4096 : 1024;
    std::string shared(rnd.Uniform(17), '\0');
    for (char& c : shared) {
      c = static_cast<char>('a' + rnd.Uniform(3));
    }
    std::set<std::string> key_set;
    if (rnd.Uniform(2) == 0) {
      key_set.insert(shared);
    }
    const size_t n = 1 + rnd.Uniform(rnd.Uniform(4) == 0 ? 8 : 1200);
    while (key_set.size() < n) {
      std::string key = shared;
      for (size_t len = rnd.Uniform(9); len > 0; len--) {
        key.push_back(static_cast<char>('a' + rnd.Uniform(4)));
      }
      key_set.insert(key);
    }
    const std::vector<std::string> keys(key_set.begin(), key_set.end());

    struct Shape {
      uint32_t b;
      bool large_values;
    };
    for (Shape shape : {Shape{16, false}, Shape{32, true},
                        Shape{TableOptions().entries_per_page, true}}) {
      std::vector<std::string> values;
      values.reserve(keys.size());
      std::vector<ParsedEntry> entries;
      std::map<std::string, std::string> encoded;  // key -> EncodeEntry
      uint64_t max_entry_bytes = 0;
      for (size_t i = 0; i < keys.size(); i++) {
        const size_t value_size = shape.large_values && rnd.Uniform(12) == 0
                                      ? page_size - 60 - rnd.Uniform(60)
                                      : rnd.Uniform(201);
        values.push_back(
            std::string(value_size, static_cast<char>('a' + i % 26)));
        entries.push_back(MakeEntry(
            keys[i], rnd.Next() >> rnd.Uniform(64), 1 + rnd.Uniform(1 << 20),
            values.back(),
            rnd.Uniform(8) == 0 ? ValueType::kTombstone : ValueType::kValue));
        EncodeEntry(entries.back(), &encoded[keys[i]]);
        max_entry_bytes =
            std::max<uint64_t>(max_entry_bytes, encoded[keys[i]].size());
      }
      for (uint32_t h : {1u, 8u}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " B=" +
                     std::to_string(shape.b) + " h=" + std::to_string(h));
        TableOptions options;
        options.page_size_bytes = page_size;
        options.entries_per_page = shape.b;
        options.pages_per_tile = h;
        const uint64_t budget = PageByteBudget(options);
        const uint32_t b = MaxEntriesPerPage(options);

        std::unique_ptr<Env> env = NewMemEnv();
        std::unique_ptr<WritableFile> file;
        ASSERT_TRUE(env->NewWritableFile("table", &file).ok());
        SSTableBuilder builder(options, file.get());
        for (const ParsedEntry& entry : entries) {
          builder.Add(entry);
        }
        TableProperties props;
        ASSERT_TRUE(builder.Finish(&props).ok());
        ASSERT_TRUE(file->Close().ok());
        std::string bytes;
        ASSERT_TRUE(ReadFileToString(env.get(), "table", &bytes).ok());
        std::unique_ptr<RandomAccessFile> read_file;
        ASSERT_TRUE(env->NewRandomAccessFile("table", &read_file).ok());
        std::unique_ptr<SSTableReader> reader;
        ASSERT_TRUE(SSTableReader::Open(options, std::move(read_file),
                                        props.file_size, &reader)
                        .ok());

        std::set<std::string> seen;
        for (uint32_t p = 0; p < reader->num_pages(); p++) {
          const Slice stored(bytes.data() + p * page_size, page_size);
          uint32_t stored_entries = 0;
          const size_t stored_bytes = StoredPageBytes(stored, &stored_entries);
          EXPECT_LE(stored_bytes, budget) << "page " << p;
          PageHandle page;
          ASSERT_TRUE(reader->ReadPage(p, &page).ok());
          const PageEntries& view = page->entries;
          ASSERT_EQ(view.size(), stored_entries);
          PageSizer sizer;
          for (size_t i = 0; i < view.size(); i++) {
            const std::string key = view.key(i).ToString();
            ASSERT_TRUE(encoded.count(key)) << key;
            EXPECT_EQ(view.encoded(i), Slice(encoded[key])) << key;
            EXPECT_TRUE(seen.insert(key).second) << key;
            EXPECT_TRUE(sizer.Add(view.key(i), view.encoded(i).size(), budget));
          }
          EXPECT_EQ(sizer.bytes(), stored_bytes) << "page " << p;
          one_entry_pages += view.size() == 1;
          byte_cut_pages += view.size() < b;
        }
        EXPECT_EQ(seen.size(), keys.size());

        uint64_t tile_entries = 0;
        size_t left = keys.size();
        const bool whole_entries_fit =
            uint64_t{b} * max_entry_bytes <= page_size - 8;
        for (const TileInfo& tile : reader->tiles()) {
          EXPECT_LE(tile.page_count, h);
          if (!whole_entries_fit) {
            continue;
          }
          tile_entries = std::min<uint64_t>(uint64_t{b} * h, left);
          left -= tile_entries;
          ASSERT_EQ(tile.page_count, (tile_entries + b - 1) / b);
          for (uint32_t p = 0; p < tile.page_count; p++) {
            EXPECT_EQ(reader->pages()[tile.first_page + p].num_entries,
                      std::min<uint64_t>(b, tile_entries - uint64_t{p} * b));
          }
        }
        count_layouts += whole_entries_fit;
      }
    }
  }
  // Every case above was met.
  EXPECT_GT(count_layouts, 10);
  EXPECT_GT(one_entry_pages, 10);
  EXPECT_GT(byte_cut_pages, 10);
}

// A secondary range delete rewrites a partial page from its kept entries,
// copied as encoded (secondary_delete.cc). Dropping the two entries that
// set the page's prefix — its smallest and largest key — lengthens the
// rewritten page's prefix, and every kept entry still reads back.
TEST(PrefixPageTest, SecondaryDeleteRewriteDropsThePrefixBounds) {
  std::unique_ptr<Env> env = NewMemEnv();
  TableOptions options;
  std::vector<std::string> keys = {"user:a"};
  for (int i = 0; i < 20; i++) {
    keys.push_back("user:mmmm" + std::to_string(100 + i));
  }
  keys.push_back("user:z");
  auto delete_key_of = [&](size_t i) -> uint64_t {
    return i == 0 || i + 1 == keys.size() ? 1000 : i;
  };
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("table", &file).ok());
  SSTableBuilder builder(options, file.get());
  for (size_t i = 0; i < keys.size(); i++) {
    builder.Add(MakeEntry(keys[i], delete_key_of(i), 10 + i, "v" + keys[i]));
  }
  TableProperties props;
  ASSERT_TRUE(builder.Finish(&props).ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_EQ(props.num_pages, 1u);
  auto stored_prefix_size = [&] {
    std::string bytes;
    EXPECT_TRUE(ReadFileToString(env.get(), "table", &bytes).ok());
    Slice header(bytes);
    uint32_t count = 0, prefix_size = 0;
    EXPECT_TRUE(GetVarint32(&header, &count));
    EXPECT_TRUE(GetVarint32(&header, &prefix_size));
    return prefix_size;
  };
  EXPECT_EQ(stored_prefix_size(), 5u);  // "user:"

  std::unique_ptr<RandomAccessFile> read_file;
  ASSERT_TRUE(env->NewRandomAccessFile("table", &read_file).ok());
  std::unique_ptr<SSTableReader> reader;
  ASSERT_TRUE(SSTableReader::Open(options, std::move(read_file),
                                  props.file_size, &reader)
                  .ok());
  SecondaryDeletePlan plan;
  reader->PlanSecondaryRangeDelete({{1000, 1001}}, {{1000, 1001}}, nullptr,
                                   &plan);
  ASSERT_EQ(plan.partial_pages, std::vector<uint32_t>{0});
  {
    PageHandle page;
    ASSERT_TRUE(reader->ReadPage(0, &page).ok());
    PageBuilder rebuilt(options.page_size_bytes, MaxEntriesPerPage(options));
    for (size_t i = 0; i < page->entries.size(); i++) {
      if (page->entries[i].delete_key != 1000) {
        ASSERT_TRUE(rebuilt.AddEncoded(page->entries.encoded(i)));
      }
    }
    std::unique_ptr<RandomWriteFile> writer;
    ASSERT_TRUE(env->NewRandomWriteFile("table", &writer).ok());
    ASSERT_TRUE(reader->RewritePage(writer.get(), 0, rebuilt.Finish()).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_EQ(stored_prefix_size(), 10u);  // "user:mmmm1"

  Statistics stats;
  for (size_t i = 0; i < keys.size(); i++) {
    bool found = false;
    TableGetResult result;
    ASSERT_TRUE(reader->Get(keys[i], nullptr, &stats, &found, &result).ok());
    EXPECT_EQ(found, delete_key_of(i) != 1000) << keys[i];
    if (found) {
      EXPECT_EQ(result.value, "v" + keys[i]);
    }
  }
  auto it = reader->NewIterator(nullptr);
  size_t i = 1;
  for (it->SeekToFirst(); it->Valid(); it->Next(), i++) {
    ASSERT_LT(i + 1, keys.size());
    EXPECT_EQ(it->entry().user_key.ToString(), keys[i]);
    EXPECT_EQ(it->entry().seq, 10 + i);
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(i + 1, keys.size());
}

// The footer's magic names the page layout: a table carrying the magic of
// the layout that stored whole keys behind a fixed32 count fails to open
// as Corruption instead of being decoded wrongly.
TEST_F(SSTableTest, OldPageLayoutMagicIsRejected) {
  TableProperties props;
  BuildTable(100, ReverseDk, &props);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(env_.get(), "table", &bytes).ok());
  EncodeFixed64(bytes.data() + bytes.size() - 8, 0x4c65746865544256ull);
  ASSERT_TRUE(WriteStringToFile(env_.get(), bytes, "old").ok());
  std::unique_ptr<RandomAccessFile> read_file;
  ASSERT_TRUE(env_->NewRandomAccessFile("old", &read_file).ok());
  std::unique_ptr<SSTableReader> reader;
  EXPECT_TRUE(SSTableReader::Open(options_, std::move(read_file),
                                  props.file_size, &reader)
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// Pinned table bytes. Each table mixes every shape the builder handles —
// point tombstones, a key kept in two versions by a snapshot, range
// tombstones, varied value sizes and one entry that exactly fills a page's
// byte budget — over h in {1, 4}, B uncapped and B = 32, and delete keys
// that arrive ascending or random (with repeats). The sizes and crc32c
// values were measured on the builder that first wrote prefix-compressed
// pages; any change to SSTableBuilder or PageBuilder must reproduce them
// byte for byte.

struct PinnedTable {
  uint32_t pages_per_tile;
  bool capped;  // B = 32, else uncapped
  bool random_delete_keys;
  uint64_t size;
  uint32_t crc;
};

std::string BuildPinnedTable(const PinnedTable& shape) {
  TableOptions options;
  options.pages_per_tile = shape.pages_per_tile;
  if (shape.capped) {
    options.entries_per_page = 32;
  }
  constexpr int kEntries = 700;
  constexpr int kTwoVersions = 250;  // this key also keeps an older version
  constexpr int kFullPage = 480;     // this key's entry fills a whole page
  Random rnd(301);
  std::vector<std::string> values;
  std::vector<ParsedEntry> entries;
  std::vector<std::string> keys;
  values.reserve(kEntries + 1);
  keys.reserve(kEntries);
  for (int i = 0; i < kEntries; i++) {
    keys.push_back(EncodeKey(i));
  }
  for (int i = 0; i < kEntries; i++) {
    const uint64_t dk = shape.random_delete_keys ? rnd.Uniform(kEntries / 2)
                                                 : uint64_t{10} * i + 3;
    std::string value;
    ValueType type = ValueType::kValue;
    if (i % 9 == 4) {
      type = ValueType::kTombstone;
    } else if (i == kFullPage) {
      // Alone on a page the entry stores its whole key as the prefix,
      // behind a one-byte count, and a one-byte empty suffix length: two
      // bytes over its encoded size, which is the entry's bytes with an
      // empty value plus a 2-byte varint32 value length in place of the
      // empty value's 1-byte one.
      const uint64_t empty_value_bytes =
          EncodedEntrySize(MakeEntry(keys[i], dk, 5000 + i, ""));
      value.assign(PageByteBudget(options) - 2 - (empty_value_bytes + 1), 'f');
    } else {
      value.assign(8 + (i * 37) % 190, static_cast<char>('a' + i % 26));
    }
    values.push_back(std::move(value));
    entries.push_back(MakeEntry(keys[i], dk, 5000 + i, values.back(), type));
    if (i == kTwoVersions) {
      values.push_back("older version");
      entries.push_back(
          MakeEntry(keys[i], dk / 2 + 1, 100, values.back(), ValueType::kValue));
    }
  }
  const ParsedEntry& full_page = entries[kFullPage + 1];
  PageSizer alone;
  EXPECT_TRUE(alone.Add(full_page.user_key, EncodedEntrySize(full_page),
                        PageByteBudget(options)));
  EXPECT_EQ(alone.bytes(), PageByteBudget(options));

  std::unique_ptr<Env> env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env->NewWritableFile("pinned", &file).ok());
  SSTableBuilder builder(options, file.get());
  for (const ParsedEntry& entry : entries) {
    builder.Add(entry);
  }
  builder.AddRangeTombstone(
      RangeTombstone{EncodeKey(40), EncodeKey(90), 6000, 17});
  builder.AddRangeTombstone(
      RangeTombstone{EncodeKey(300), EncodeKey(310), 6001, 18});
  TableProperties props;
  EXPECT_TRUE(builder.Finish(&props).ok());
  EXPECT_TRUE(file->Close().ok());
  EXPECT_TRUE(props.multi_version);
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(env.get(), "pinned", &bytes).ok());
  EXPECT_EQ(bytes.size(), props.file_size);
  return bytes;
}

// A KiWi file with h = 8 and random delete keys weaves each tile's entries
// across up to 8 pages by delete key, and keeps up to three versions of a
// key (as a pinned snapshot makes compaction do). The iterator must merge
// the pages back into internal-key order, and a Get bounded by a snapshot
// must return the newest version at or below it — with and without a page
// cache, so both decoded-page sources are read.
TEST(SSTableMultiVersionTest, KiwiH8IteratorAndSnapshotGets) {
  TableOptions options;
  options.page_size_bytes = 4096;
  options.entries_per_page = 32;
  options.pages_per_tile = 8;
  constexpr int kKeys = 1500;
  Random rnd(88);
  std::vector<std::string> keys;
  std::vector<std::string> values;
  std::vector<ParsedEntry> expected;
  keys.reserve(kKeys);
  values.reserve(3 * kKeys);
  for (int k = 0; k < kKeys; k++) {
    keys.push_back(EncodeKey(k));
    const int versions = 1 + static_cast<int>(rnd.Uniform(3));
    std::set<SequenceNumber> seqs;
    while (static_cast<int>(seqs.size()) < versions) {
      seqs.insert(1 + rnd.Uniform(10000));
    }
    for (auto seq = seqs.rbegin(); seq != seqs.rend(); ++seq) {
      values.push_back(std::string(rnd.Uniform(4) == 0 ? 0 : rnd.Uniform(120),
                                   static_cast<char>('a' + k % 26)));
      expected.push_back(MakeEntry(
          keys.back(), rnd.Uniform(1 << 20), *seq, values.back(),
          rnd.Uniform(8) == 0 ? ValueType::kTombstone : ValueType::kValue));
    }
  }

  std::unique_ptr<Env> env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("mv", &file).ok());
  SSTableBuilder builder(options, file.get());
  for (const ParsedEntry& entry : expected) {
    builder.Add(entry);
  }
  TableProperties props;
  ASSERT_TRUE(builder.Finish(&props).ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(props.multi_version);
  ASSERT_GT(props.num_tiles, 1u);

  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "page cache" : "no page cache");
    Statistics stats;
    PageCache cache(64 << 20, PageCache::kDefaultShardBits, &stats);
    std::unique_ptr<RandomAccessFile> read_file;
    ASSERT_TRUE(env->NewRandomAccessFile("mv", &read_file).ok());
    std::unique_ptr<SSTableReader> reader;
    ASSERT_TRUE(SSTableReader::Open(options, std::move(read_file),
                                    props.file_size, &reader, /*file_number=*/1,
                                    cached ? &cache : nullptr)
                    .ok());
    for (int pass = 0; pass < 2; pass++) {  // the second pass hits the cache
      auto it = reader->NewIterator(nullptr);
      size_t i = 0;
      for (it->SeekToFirst(); it->Valid(); it->Next(), i++) {
        ASSERT_LT(i, expected.size());
        ExpectSameEntry(it->entry(), expected[i]);
      }
      ASSERT_TRUE(it->status().ok());
      EXPECT_EQ(i, expected.size());
    }

    // Seek lands on the newest version of the target key.
    auto it = reader->NewIterator(nullptr);
    for (size_t i = 0; i < expected.size(); i += 37) {
      if (i > 0 && expected[i - 1].user_key == expected[i].user_key) {
        continue;
      }
      it->Seek(expected[i].user_key);
      ASSERT_TRUE(it->Valid());
      ExpectSameEntry(it->entry(), expected[i]);
    }

    for (SequenceNumber snapshot : {SequenceNumber{2500}, SequenceNumber{5000},
                                    SequenceNumber{7500},
                                    kMaxSequenceNumber}) {
      size_t i = 0;
      while (i < expected.size()) {
        const Slice key = expected[i].user_key;
        const ParsedEntry* newest = nullptr;
        for (; i < expected.size() && expected[i].user_key == key; i++) {
          if (newest == nullptr && expected[i].seq <= snapshot) {
            newest = &expected[i];
          }
        }
        bool found = false;
        TableGetResult result;
        ASSERT_TRUE(reader->Get(key, nullptr, nullptr, &found, &result,
                                /*fill_cache=*/true, snapshot)
                        .ok());
        ASSERT_EQ(found, newest != nullptr) << key.ToString();
        if (newest != nullptr) {
          EXPECT_EQ(result.seq, newest->seq);
          EXPECT_EQ(result.type, newest->type);
          EXPECT_EQ(result.delete_key, newest->delete_key);
          EXPECT_EQ(result.value, newest->value);
        }
      }
    }
  }
}

TEST(PinnedTableBytesTest, BuilderOutputIsUnchanged) {
  const PinnedTable kTables[] = {
      {1, false, false, 84174, 0x017defdfu},
      {1, false, true, 84174, 0x78094fa9u},
      {1, true, false, 113229, 0x514d26afu},
      {1, true, true, 113229, 0x0a6d42fcu},
      {4, false, false, 84158, 0x49ca3514u},
      {4, false, true, 84158, 0x8e4092d9u},
      {4, true, false, 113206, 0xee1e4b7du},
      {4, true, true, 113206, 0xde16c9f5u},
  };
  for (const PinnedTable& shape : kTables) {
    SCOPED_TRACE("h=" + std::to_string(shape.pages_per_tile) +
                 (shape.capped ? " B=32" : " B=uncapped") +
                 (shape.random_delete_keys ? " random" : " ascending") +
                 " delete keys");
    const std::string bytes = BuildPinnedTable(shape);
    const uint32_t crc = crc32c::Value(bytes.data(), bytes.size());
    EXPECT_EQ(bytes.size(), shape.size);
    EXPECT_EQ(crc, shape.crc);
  }
}

}  // namespace
}  // namespace lethe
