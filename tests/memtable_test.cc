// Tests for the write path substrate: skiplist, memtable, WAL.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/env/env.h"
#include "src/format/file_meta.h"
#include "src/memtable/memtable.h"
#include "src/memtable/skiplist.h"
#include "src/memtable/wal.h"
#include "src/memtable/write_batch.h"
#include "src/util/random.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

struct IntComparator {
  int operator()(const char* a, const char* b) const {
    int ia, ib;
    memcpy(&ia, a, sizeof(ia));
    memcpy(&ib, b, sizeof(ib));
    return ia - ib;
  }
};

TEST(SkipListTest, InsertAndIterateSorted) {
  Arena arena;
  SkipList<IntComparator> list(IntComparator(), &arena);
  Random rnd(7);
  std::set<int> inserted;
  for (int i = 0; i < 2000; i++) {
    int v = static_cast<int>(rnd.Uniform(1000000));
    if (!inserted.insert(v).second) {
      continue;
    }
    char* mem = arena.Allocate(sizeof(int));
    memcpy(mem, &v, sizeof(v));
    list.Insert(mem);
  }
  SkipList<IntComparator>::Iterator it(&list);
  auto expected = inserted.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    int v;
    memcpy(&v, it.key(), sizeof(v));
    ASSERT_NE(expected, inserted.end());
    EXPECT_EQ(v, *expected);
    ++expected;
  }
  EXPECT_EQ(expected, inserted.end());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  Arena arena;
  SkipList<IntComparator> list(IntComparator(), &arena);
  for (int v = 0; v < 100; v += 10) {
    char* mem = arena.Allocate(sizeof(int));
    memcpy(mem, &v, sizeof(v));
    list.Insert(mem);
  }
  int probe = 35;
  char probe_mem[sizeof(int)];
  memcpy(probe_mem, &probe, sizeof(probe));
  SkipList<IntComparator>::Iterator it(&list);
  it.Seek(probe_mem);
  ASSERT_TRUE(it.Valid());
  int v;
  memcpy(&v, it.key(), sizeof(v));
  EXPECT_EQ(v, 40);
  EXPECT_TRUE(list.Contains(it.key()));
}

/// Inserts `v` into `list` (arena-allocated); returns Insert's tail flag.
bool InsertInt(SkipList<IntComparator>* list, Arena* arena, int v) {
  char* mem = arena->Allocate(sizeof(int));
  memcpy(mem, &v, sizeof(v));
  return list->Insert(mem);
}

int KeyOf(const char* key) {
  int v;
  memcpy(&v, key, sizeof(v));
  return v;
}

TEST(SkipListTest, TailAppendsAndMiddleInsertsKeepOrder) {
  Arena arena;
  SkipList<IntComparator> list(IntComparator(), &arena);
  std::set<int> inserted;
  // An ascending run appends at the tail, every insert after the first
  // one compare; the empty list's first key is a tail append too.
  for (int v = 0; v < 3000; v += 3) {
    EXPECT_TRUE(InsertInt(&list, &arena, v));
    inserted.insert(v);
  }
  // Middle inserts search; one of them lands at a level's end without
  // being the last node, which the tail state must pick up.
  Random rnd(11);
  for (int i = 0; i < 500; i++) {
    const int v = static_cast<int>(rnd.Uniform(3000));
    if (v % 3 == 0 || !inserted.insert(v).second) {
      continue;
    }
    EXPECT_FALSE(InsertInt(&list, &arena, v));
  }
  EXPECT_FALSE(InsertInt(&list, &arena, -1));  // new head: not a tail append
  inserted.insert(-1);
  // A second ascending run appends after the middle inserts.
  for (int v = 3000; v < 6000; v++) {
    EXPECT_TRUE(InsertInt(&list, &arena, v));
    inserted.insert(v);
  }

  SkipList<IntComparator>::Iterator it(&list);
  auto expected = inserted.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ASSERT_NE(expected, inserted.end());
    EXPECT_EQ(KeyOf(it.key()), *expected);
    ++expected;
  }
  EXPECT_EQ(expected, inserted.end());
  // Every element is reachable by search at every level.
  for (int v : inserted) {
    char probe[sizeof(int)];
    memcpy(probe, &v, sizeof(v));
    it.Seek(probe);
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(KeyOf(it.key()), v);
  }
  it.SeekToLast();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(KeyOf(it.key()), 5999);
}

TEST(SkipListTest, ReaderIteratesDuringAscendingInserts) {
  Arena arena;
  SkipList<IntComparator> list(IntComparator(), &arena);
  constexpr int kKeys = 20000;
  std::atomic<bool> done{false};
  std::atomic<int> scans{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      // An ascending run publishes a growing prefix: a scan sees 0..n-1
      // for some n, in order, with no gap.
      SkipList<IntComparator>::Iterator it(&list);
      int expected = 0;
      for (it.SeekToFirst(); it.Valid(); it.Next()) {
        ASSERT_EQ(KeyOf(it.key()), expected);
        expected++;
      }
      it.SeekToLast();
      if (expected > 0) {
        ASSERT_TRUE(it.Valid());
        ASSERT_GE(KeyOf(it.key()), expected - 1);
      }
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int v = 0; v < kKeys; v++) {
    EXPECT_TRUE(InsertInt(&list, &arena, v));
  }
  while (scans.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  SkipList<IntComparator>::Iterator it(&list);
  int n = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_EQ(KeyOf(it.key()), n++);
  }
  EXPECT_EQ(n, kKeys);
}

TEST(MemTableTest, AddAndGetNewestVersion) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "key", 100, "v1", 10);
  mem.Add(2, ValueType::kValue, "key", 200, "v2", 20);

  ParsedEntry entry;
  ASSERT_TRUE(mem.Get("key", &entry));
  EXPECT_EQ(entry.value.ToString(), "v2");
  EXPECT_EQ(entry.seq, 2u);
  EXPECT_EQ(entry.delete_key, 200u);
  EXPECT_FALSE(mem.Get("other", &entry));
}

// Get builds its seek target on the stack when it fits (128 bytes: keys up
// to 118 bytes) and on the heap otherwise; both must find every version.
TEST(MemTableTest, GetFindsKeysOfEveryLengthUnderSnapshots) {
  MemTable mem;
  const size_t kLengths[] = {0, 15, 16, 118, 119, 300};
  std::vector<std::string> keys;
  for (size_t len : kLengths) {
    keys.push_back(std::string(len, 'k'));
  }
  SequenceNumber seq = 0;
  for (const std::string& key : keys) {
    mem.Add(++seq, ValueType::kValue, key, 1, "old" + key, 0);
  }
  for (const std::string& key : keys) {
    mem.Add(++seq, ValueType::kValue, key, 2, "new" + key, 0);
  }
  const SequenceNumber first_round = keys.size();
  for (size_t i = 0; i < keys.size(); i++) {
    SCOPED_TRACE("key length " + std::to_string(keys[i].size()));
    ParsedEntry entry;
    ASSERT_TRUE(mem.Get(keys[i], &entry, kMaxSequenceNumber));
    EXPECT_EQ(entry.user_key.ToString(), keys[i]);
    EXPECT_EQ(entry.value.ToString(), "new" + keys[i]);
    EXPECT_EQ(entry.seq, first_round + i + 1);

    ASSERT_TRUE(mem.Get(keys[i], &entry, first_round));
    EXPECT_EQ(entry.value.ToString(), "old" + keys[i]);
    EXPECT_EQ(entry.seq, i + 1);

    // Under a snapshot older than every version the key is absent.
    EXPECT_FALSE(mem.Get(keys[i], &entry, i));
  }
  ParsedEntry entry;
  EXPECT_FALSE(mem.Get(std::string(17, 'k'), &entry, kMaxSequenceNumber));
  EXPECT_FALSE(mem.Get(std::string(301, 'k'), &entry, kMaxSequenceNumber));
}

TEST(MemTableTest, TombstoneVisibleAsNewest) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "key", 1, "v", 10);
  mem.Add(2, ValueType::kTombstone, "key", 2, "", 20);
  ParsedEntry entry;
  ASSERT_TRUE(mem.Get("key", &entry));
  EXPECT_TRUE(entry.IsTombstone());
  EXPECT_EQ(mem.num_point_tombstones(), 1u);
  EXPECT_EQ(mem.oldest_tombstone_time(), 20u);
}

TEST(MemTableTest, OldestTombstoneTimeTracksMinimum) {
  MemTable mem;
  EXPECT_EQ(mem.oldest_tombstone_time(), kNoTombstoneTime);
  mem.Add(1, ValueType::kTombstone, "a", 0, "", 50);
  mem.Add(2, ValueType::kTombstone, "b", 0, "", 30);
  mem.Add(3, ValueType::kTombstone, "c", 0, "", 70);
  EXPECT_EQ(mem.oldest_tombstone_time(), 30u);

  RangeTombstone rt{"d", "e", 4, 10};
  mem.AddRangeTombstone(rt);
  EXPECT_EQ(mem.oldest_tombstone_time(), 10u);
}

TEST(MemTableTest, IteratorOrderedNewestVersionFirst) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "b", 0, "b1", 0);
  mem.Add(2, ValueType::kValue, "a", 0, "a1", 0);
  mem.Add(3, ValueType::kValue, "b", 0, "b2", 0);

  auto it = mem.NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().user_key.ToString(), "a");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().user_key.ToString(), "b");
  EXPECT_EQ(it->entry().seq, 3u);  // newest version first
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().seq, 1u);
  it->Next();
  EXPECT_FALSE(it->Valid());
}

// The skiplist compares records by key length, key and (seq, type) trailer
// alone. Its order must still be the internal-key order of the fully
// decoded entries, across prefix keys, the 1-to-2-byte varint boundary of
// the key length (127/128), bytes above 0x7f, and one key at many seqs.
TEST(MemTableTest, KeyOnlyComparatorKeepsInternalKeyOrder) {
  Random rnd(2024);
  std::vector<std::string> keys;
  for (size_t len : {0, 1, 127, 128, 129, 300}) {
    keys.push_back(std::string(len, 'x'));  // each a prefix of the next
  }
  keys.push_back("x\xff");
  keys.push_back("x\x80y");
  for (int i = 0; i < 300; i++) {
    std::string key(rnd.Uniform(12), '\0');
    for (char& c : key) {
      // A small alphabet makes prefixes and shared stems common; every
      // fifth key also draws bytes above 0x7f.
      c = i % 5 == 0 ? static_cast<char>(rnd.Uniform(256))
                     : static_cast<char>('a' + rnd.Uniform(3));
    }
    keys.push_back(key);
  }
  const std::string hot = "hot";
  for (int i = 0; i < 20; i++) {
    keys.push_back(hot);
  }

  // Unique seqs handed out in shuffled order, so versions of a key arrive
  // in no particular seq order.
  std::vector<SequenceNumber> seqs(keys.size());
  for (size_t i = 0; i < seqs.size(); i++) {
    seqs[i] = i + 1;
  }
  for (size_t i = seqs.size() - 1; i > 0; i--) {
    std::swap(seqs[i], seqs[rnd.Uniform(i + 1)]);
  }

  struct Expected {
    std::string key;
    SequenceNumber seq;
    ValueType type;
    uint64_t delete_key;
    std::string value;
  };
  std::vector<Expected> expected;
  MemTable mem;
  for (size_t i = 0; i < keys.size(); i++) {
    const ValueType type =
        rnd.Uniform(4) == 0 ? ValueType::kTombstone : ValueType::kValue;
    const std::string value =
        type == ValueType::kValue ? std::string(rnd.Uniform(200), 'v') : "";
    const uint64_t delete_key = rnd.Next();
    mem.Add(seqs[i], type, keys[i], delete_key, value, 0);
    expected.push_back({keys[i], seqs[i], type, delete_key, value});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Expected& a, const Expected& b) {
              return CompareInternal(Slice(a.key), a.seq, Slice(b.key),
                                     b.seq) < 0;
            });

  auto it = mem.NewIterator();
  size_t i = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), i++) {
    ASSERT_LT(i, expected.size());
    const ParsedEntry& e = it->entry();
    EXPECT_EQ(e.user_key.ToString(), expected[i].key) << i;
    EXPECT_EQ(e.seq, expected[i].seq) << i;
    EXPECT_EQ(e.type, expected[i].type) << i;
    EXPECT_EQ(e.delete_key, expected[i].delete_key) << i;
    EXPECT_EQ(e.value.ToString(), expected[i].value) << i;
  }
  EXPECT_EQ(i, expected.size());

  // Get returns each key's newest version; the sorted list holds it first.
  for (size_t j = 0; j < expected.size(); j++) {
    if (j > 0 && expected[j].key == expected[j - 1].key) {
      continue;
    }
    ParsedEntry e;
    ASSERT_TRUE(mem.Get(expected[j].key, &e)) << j;
    EXPECT_EQ(e.seq, expected[j].seq) << j;
    EXPECT_EQ(e.type, expected[j].type) << j;
  }

  // Snapshot reads of the many-version key land on the newest seq at or
  // below the bound.
  std::vector<SequenceNumber> hot_seqs;
  for (const Expected& e : expected) {
    if (e.key == hot) {
      hot_seqs.push_back(e.seq);  // newest first
    }
  }
  ASSERT_EQ(hot_seqs.size(), 20u);
  for (size_t j = 0; j < hot_seqs.size(); j++) {
    ParsedEntry e;
    ASSERT_TRUE(mem.Get(hot, &e, hot_seqs[j]));
    EXPECT_EQ(e.seq, hot_seqs[j]);
  }
  ParsedEntry none;
  EXPECT_FALSE(mem.Get(hot, &none, hot_seqs.back() - 1));
}

TEST(MemTableTest, PurgeDeleteKeyRange) {
  MemTable mem;
  for (int i = 0; i < 100; i++) {
    mem.Add(i + 1, ValueType::kValue, "key" + std::to_string(1000 + i),
            static_cast<uint64_t>(i), "v", 0);
  }
  uint64_t purged = mem.PurgeDeleteKeyRange(20, 50);
  EXPECT_EQ(purged, 30u);

  ParsedEntry entry;
  EXPECT_FALSE(mem.Get("key1025", &entry));  // delete key 25: purged
  EXPECT_TRUE(mem.Get("key1010", &entry));   // delete key 10: live
  EXPECT_TRUE(mem.Get("key1050", &entry));   // delete key 50: exclusive end

  // Iterator skips purged entries.
  auto it = mem.NewIterator();
  int live = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    live++;
  }
  EXPECT_EQ(live, 70);

  // Idempotent: nothing more to purge.
  EXPECT_EQ(mem.PurgeDeleteKeyRange(20, 50), 0u);
}

TEST(MemTableTest, PurgeUncoversOlderVersion) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", 10, "old", 0);
  mem.Add(2, ValueType::kValue, "k", 99, "new", 0);
  // Purging only delete key 99 exposes the older version (physical
  // deletion semantics of secondary range deletes).
  EXPECT_EQ(mem.PurgeDeleteKeyRange(99, 100), 1u);
  ParsedEntry entry;
  ASSERT_TRUE(mem.Get("k", &entry));
  EXPECT_EQ(entry.value.ToString(), "old");
}

/// The span KeySpan must report: first and last live user keys, found by
/// walking the memtable's (purge-skipping) iterator.
bool WalkedSpan(const MemTable& mem, std::string* smallest,
                std::string* largest) {
  auto it = mem.NewIterator();
  bool any = false;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (!any) {
      *smallest = it->entry().user_key.ToString();
    }
    *largest = it->entry().user_key.ToString();
    any = true;
  }
  return any;
}

TEST(MemTableTest, KeySpanMatchesWalkWithPurgedEntries) {
  MemTable mem;
  std::string smallest, largest;
  EXPECT_FALSE(mem.KeySpan(&smallest, &largest));
  // Delete key = position, so a delete-key band purges a key range.
  for (int i = 0; i < 100; i++) {
    mem.Add(i + 1, ValueType::kValue, "key" + std::to_string(1000 + i),
            static_cast<uint64_t>(i), "v", 0);
  }
  ASSERT_TRUE(mem.KeySpan(&smallest, &largest));
  EXPECT_EQ(smallest, "key1000");
  EXPECT_EQ(largest, "key1099");

  // Head, middle and tail purges: the span follows the live entries.
  const std::pair<uint64_t, uint64_t> bands[] = {{0, 10}, {40, 60}, {90, 100}};
  for (const auto& [lo, hi] : bands) {
    mem.PurgeDeleteKeyRange(lo, hi);
    std::string walked_smallest, walked_largest;
    ASSERT_TRUE(WalkedSpan(mem, &walked_smallest, &walked_largest));
    ASSERT_TRUE(mem.KeySpan(&smallest, &largest));
    EXPECT_EQ(smallest, walked_smallest);
    EXPECT_EQ(largest, walked_largest);
  }
  EXPECT_EQ(smallest, "key1010");
  EXPECT_EQ(largest, "key1089");

  // Everything purged: no live span.
  mem.PurgeDeleteKeyRange(0, 100);
  EXPECT_FALSE(mem.KeySpan(&smallest, &largest));
}

TEST(MemTableTest, AddReportsTailAppends) {
  MemTable mem;
  EXPECT_TRUE(mem.Add(1, ValueType::kValue, "b", 0, "v", 0));
  EXPECT_TRUE(mem.Add(2, ValueType::kValue, "c", 0, "v", 0));
  EXPECT_FALSE(mem.Add(3, ValueType::kValue, "a", 0, "v", 0));
  // A newer version of the last key sorts before it (seq descending).
  EXPECT_FALSE(mem.Add(4, ValueType::kValue, "c", 0, "v2", 0));
  EXPECT_TRUE(mem.Add(5, ValueType::kTombstone, "d", 0, "", 0));
}

TEST(MemTableTest, RangeTombstoneSetQueries) {
  MemTable mem;
  RangeTombstone rt{"b", "d", 10, 5};
  mem.AddRangeTombstone(rt);
  EXPECT_TRUE(mem.range_tombstones()->Covers("c", 5));
  EXPECT_FALSE(mem.range_tombstones()->Covers("c", 15));
  EXPECT_EQ(mem.range_tombstones()->size(), 1u);
}

TEST(MemTableTest, ChunkedRangeTombstonePublish) {
  // Cross several chunk seals and verify the snapshot structure: queries
  // and the insertion-order flattening must match a flat reference list.
  MemTable mem;
  std::vector<RangeTombstone> reference;
  const size_t n = BufferedRangeTombstones::kRtChunkSize * 3 + 7;
  for (size_t i = 0; i < n; i++) {
    std::string begin(1, static_cast<char>('a' + (i % 20)));
    RangeTombstone rt{begin, begin + "z", SequenceNumber(i + 1), i};
    mem.AddRangeTombstone(rt);
    reference.push_back(rt);
  }
  auto snap = mem.range_tombstones();
  EXPECT_EQ(snap->size(), n);
  size_t chain_len = 0;
  for (const RtChunk* c = snap->sealed.get(); c != nullptr;
       c = c->prev.get()) {
    chain_len++;
  }
  EXPECT_EQ(chain_len, 3u);
  EXPECT_EQ(snap->active.size(), 7u);

  // Flattening preserves insertion order exactly (flush depends on it).
  std::vector<RangeTombstone> flat = snap->ToVector();
  ASSERT_EQ(flat.size(), reference.size());
  for (size_t i = 0; i < flat.size(); i++) {
    EXPECT_EQ(flat[i].begin_key, reference[i].begin_key);
    EXPECT_EQ(flat[i].end_key, reference[i].end_key);
    EXPECT_EQ(flat[i].seq, reference[i].seq);
    EXPECT_EQ(flat[i].time, reference[i].time);
  }

  // Chunked queries agree with the naive set over the same tombstones.
  RangeTombstoneSet naive;
  naive.AddAll(reference);
  for (char c = 'a'; c <= 'z'; c++) {
    std::string key(1, c);
    for (SequenceNumber seq : {SequenceNumber(0), SequenceNumber(5),
                               SequenceNumber(n / 2), SequenceNumber(n + 1)}) {
      EXPECT_EQ(snap->Covers(key, seq), naive.Covers(key, seq))
          << key << " seq=" << seq;
      EXPECT_EQ(snap->MaxCoverSeq(key, seq), naive.MaxCoverSeq(key, seq))
          << key << " max_seq=" << seq;
    }
  }
}

TEST(MemTableTest, ChunkedPublishSharesSealedChunks) {
  // Old snapshots stay intact and share sealed chunks with newer ones —
  // the O(1)-amortized-publish property.
  MemTable mem;
  const size_t chunk = BufferedRangeTombstones::kRtChunkSize;
  for (size_t i = 0; i < chunk; i++) {
    mem.AddRangeTombstone({"a", "b", SequenceNumber(i + 1), 0});
  }
  auto before = mem.range_tombstones();
  ASSERT_NE(before->sealed, nullptr);
  ASSERT_EQ(before->sealed->prev, nullptr);
  mem.AddRangeTombstone({"c", "d", SequenceNumber(chunk + 1), 0});
  auto after = mem.range_tombstones();
  // Same sealed chunk object, shared by pointer across the publish.
  EXPECT_EQ(before->sealed.get(), after->sealed.get());
  // The old snapshot does not see the new tombstone.
  EXPECT_EQ(before->size(), chunk);
  EXPECT_FALSE(before->Covers("c", 0));
  EXPECT_TRUE(after->Covers("c", 0));
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable mem;
  size_t before = mem.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    mem.Add(i + 1, ValueType::kValue, "key" + std::to_string(i), 0,
            std::string(100, 'v'), 0);
  }
  EXPECT_GT(mem.ApproximateMemoryUsage(), before + 100000);
  EXPECT_EQ(mem.num_entries(), 1000u);
}

/// Writes `groups` through a WalWriter, one AddFramed each, into `fname`.
void WriteWal(Env* env, const std::string& fname,
              const std::vector<WalGroup>& groups) {
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env->NewWritableFile(fname, &wf).ok());
  WalWriter writer(std::move(wf));
  for (const WalGroup& group : groups) {
    std::string framed;
    AppendWalGroup(group, &framed);
    bool appended = false;
    ASSERT_TRUE(writer.AddFramed(framed, /*sync=*/false, &appended).ok());
    EXPECT_TRUE(appended);
  }
  ASSERT_TRUE(writer.Close().ok());
}

TEST(WalTest, RecordRoundTrip) {
  std::vector<WalGroup> groups(3);
  groups[0].first_seq = 1;
  groups[0].time = 111;
  WalOp& put = groups[0].ops.emplace_back();
  put.kind = WalOp::Kind::kPut;
  put.key = "alpha";
  put.delete_key = 42;
  put.value = "beta";
  groups[1].first_seq = 2;
  groups[1].time = 222;
  WalOp& del = groups[1].ops.emplace_back();
  del.kind = WalOp::Kind::kDelete;
  del.key = "alpha";
  groups[2].first_seq = 3;
  groups[2].time = 333;
  WalOp& range = groups[2].ops.emplace_back();
  range.kind = WalOp::Kind::kRangeDelete;
  range.key = "a";
  range.end_key = "z";
  auto env = NewMemEnv();
  WriteWal(env.get(), "wal", groups);

  RecordLogScanner::Result last;
  const std::vector<test::LoggedOp> ops =
      test::ReadWalOps(env.get(), "wal", &last);
  EXPECT_EQ(last, RecordLogScanner::Result::kEnd);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, WalOp::Kind::kPut);
  EXPECT_EQ(ops[0].key, "alpha");
  EXPECT_EQ(ops[0].value, "beta");
  EXPECT_EQ(ops[0].delete_key, 42u);
  EXPECT_EQ(ops[0].time, 111u);
  EXPECT_EQ(ops[1].kind, WalOp::Kind::kDelete);
  EXPECT_EQ(ops[1].seq, 2u);
  EXPECT_EQ(ops[1].group, 1u);
  EXPECT_EQ(ops[2].kind, WalOp::Kind::kRangeDelete);
  EXPECT_EQ(ops[2].end_key, "z");
}

// A commit group is one frame: its ops, across every kind and the varint
// boundaries of the payload, read back in order with consecutive sequences
// and the group's time, and a torn frame reads back as no op at all.
TEST(WalTest, GroupRoundTrip) {
  const std::string long_key(200, 'k');  // 2-byte varint key length
  WalGroup group;
  group.first_seq = 0x123456789aull;  // a multi-byte varint64
  group.time = 1001;
  group.ops.resize(6);
  group.ops[0].kind = WalOp::Kind::kPut;
  group.ops[0].key = long_key;
  group.ops[0].delete_key = 0x0102030405060708ull;
  group.ops[0].value = "value";
  group.ops[1].kind = WalOp::Kind::kPut;
  group.ops[1].key = "empty-value";
  group.ops[1].delete_key = 9;
  group.ops[2].kind = WalOp::Kind::kDelete;
  group.ops[2].key = "gone";
  group.ops[2].delete_key = 1003;
  group.ops[3].kind = WalOp::Kind::kRangeDelete;
  group.ops[3].key = "a";
  group.ops[3].end_key = "m";
  group.ops[4].kind = WalOp::Kind::kSecondaryRangeDelete;
  group.ops[4].delete_key = 100;
  group.ops[4].delete_key_end = UINT64_MAX;
  group.ops[5].kind = WalOp::Kind::kPutExpiring;
  group.ops[5].key = "ttl";
  group.ops[5].delete_key = 1ull << 40;  // a deadline
  group.ops[5].value = "expiring";
  auto env = NewMemEnv();
  WriteWal(env.get(), "group", {group});

  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), "group", &contents).ok());
  RecordLogScanner scanner{Slice(contents)};
  Slice payload;
  ASSERT_EQ(scanner.Next(&payload), RecordLogScanner::Result::kRecord);
  EXPECT_EQ(scanner.Next(&payload), RecordLogScanner::Result::kEnd);

  RecordLogScanner::Result last;
  const std::vector<test::LoggedOp> got =
      test::ReadWalOps(env.get(), "group", &last);
  EXPECT_EQ(last, RecordLogScanner::Result::kEnd);
  ASSERT_EQ(got.size(), group.ops.size());
  for (size_t i = 0; i < group.ops.size(); i++) {
    const WalOp& want = group.ops[i];
    EXPECT_EQ(got[i].kind, want.kind) << i;
    EXPECT_EQ(got[i].seq, group.first_seq + i) << i;
    EXPECT_EQ(got[i].time, group.time) << i;
    EXPECT_EQ(got[i].group, 0u) << i;
    EXPECT_EQ(got[i].key, want.key.ToString()) << i;
    EXPECT_EQ(got[i].end_key, want.end_key.ToString()) << i;
    EXPECT_EQ(got[i].delete_key, want.delete_key) << i;
    EXPECT_EQ(got[i].value, want.value.ToString()) << i;
    EXPECT_EQ(got[i].delete_key_end, want.delete_key_end) << i;
  }

  // Re-encoding the decoded group reproduces the frame byte for byte.
  WalGroup decoded;
  ASSERT_TRUE(DecodeWalGroup(payload, &decoded));
  std::string reframed;
  AppendWalGroup(decoded, &reframed);
  EXPECT_EQ(reframed, contents);

  // The frame's length and checksum cover the whole group: a log cut
  // anywhere inside the frame yields no op at all.
  for (size_t len = 1; len < contents.size(); len++) {
    const std::string torn = contents.substr(0, len);
    RecordLogScanner torn_scanner{Slice(torn)};
    EXPECT_EQ(torn_scanner.Next(&payload), RecordLogScanner::Result::kTornTail)
        << len;
  }
}

TEST(WalTest, DecodeRejectsBadKind) {
  // first_seq 1 | time 2 | an op of kind 9.
  std::string buf = "\x01\x02\x09 garbage bytes here";
  WalGroup group;
  EXPECT_FALSE(DecodeWalGroup(Slice(buf), &group));
  // A group of no ops, or one whose sequences leave the 56-bit range.
  EXPECT_FALSE(DecodeWalGroup(Slice("\x01\x02", 2), &group));
  WalGroup wrapping;
  wrapping.first_seq = kMaxSequenceNumber;
  wrapping.ops.resize(2);
  std::string framed;
  AppendWalGroup(wrapping, &framed);
  RecordLogScanner scanner{Slice(framed)};
  Slice payload;
  ASSERT_EQ(scanner.Next(&payload), RecordLogScanner::Result::kRecord);
  EXPECT_FALSE(DecodeWalGroup(payload, &group));
}

}  // namespace
}  // namespace lethe

namespace lethe {
namespace {

TEST(WriteBatchTest, OpsRoundTripEveryKind) {
  WriteBatch batch;
  const std::string big(1 << 20, 'x');
  batch.Put("k1", 7, "v1");
  batch.Put("", 8, "");  // empty key and value
  batch.Delete("k2");
  batch.RangeDelete("a", "m");
  batch.Put("k3", 9, big);
  ASSERT_EQ(batch.Count(), 5u);

  std::vector<WriteBatch::Op> ops;
  for (const WriteBatch::Op op : batch.ops()) {
    ops.push_back(op);
  }
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].kind, WriteBatch::OpKind::kPut);
  EXPECT_EQ(ops[0].key.ToString(), "k1");
  EXPECT_EQ(ops[0].delete_key, 7u);
  EXPECT_EQ(ops[0].value.ToString(), "v1");
  EXPECT_TRUE(ops[0].end_key.empty());
  EXPECT_EQ(ops[1].kind, WriteBatch::OpKind::kPut);
  EXPECT_TRUE(ops[1].key.empty());
  EXPECT_TRUE(ops[1].value.empty());
  EXPECT_EQ(ops[1].delete_key, 8u);
  EXPECT_EQ(ops[2].kind, WriteBatch::OpKind::kDelete);
  EXPECT_EQ(ops[2].key.ToString(), "k2");
  EXPECT_TRUE(ops[2].value.empty());
  EXPECT_EQ(ops[3].kind, WriteBatch::OpKind::kRangeDelete);
  EXPECT_EQ(ops[3].key.ToString(), "a");
  EXPECT_EQ(ops[3].end_key.ToString(), "m");
  EXPECT_EQ(ops[4].value.size(), big.size());
  EXPECT_TRUE(ops[4].value == Slice(big));
  EXPECT_EQ(batch.op(4).key.ToString(), "k3");

  // The accounting group commit sizes groups by: key + value + 8 per Put,
  // key + 8 per Delete, both keys per RangeDelete.
  EXPECT_EQ(batch.ApproximateBytes(),
            (2 + 2 + 8) + (0 + 0 + 8) + (2 + 8) + (1 + 1) + (2 + big.size() + 8));
}

TEST(WriteBatchTest, ClearThenReuseLeavesNoStaleBytes) {
  WriteBatch batch;
  batch.Put("long-key-from-before", 1, std::string(1000, 'o'));
  batch.RangeDelete("b0", "b9");
  batch.Clear();
  EXPECT_EQ(batch.Count(), 0u);
  EXPECT_EQ(batch.ApproximateBytes(), 0u);
  EXPECT_FALSE(batch.ops().begin() != batch.ops().end());

  batch.Put("k", 2, "new");
  batch.Delete("d");
  ASSERT_EQ(batch.Count(), 2u);
  const WriteBatch::Op put = batch.op(0);
  EXPECT_EQ(put.key.ToString(), "k");
  EXPECT_EQ(put.value.ToString(), "new");
  EXPECT_TRUE(put.end_key.empty());
  EXPECT_EQ(put.delete_key, 2u);
  const WriteBatch::Op del = batch.op(1);
  EXPECT_EQ(del.kind, WriteBatch::OpKind::kDelete);
  EXPECT_EQ(del.key.ToString(), "d");
  EXPECT_TRUE(del.value.empty());
  EXPECT_EQ(del.delete_key, 0u);
  EXPECT_EQ(batch.ApproximateBytes(), (1 + 3 + 8) + (1 + 8));

  // A copy owns its bytes.
  WriteBatch copy = batch;
  batch.Clear();
  batch.Put("zzzzzzzzzzzzzzzzzzzzzzzz", 3, "overwrite");
  EXPECT_EQ(copy.op(0).key.ToString(), "k");
  EXPECT_EQ(copy.op(1).key.ToString(), "d");
}

}  // namespace
}  // namespace lethe
