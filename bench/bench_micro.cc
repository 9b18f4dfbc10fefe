// Microbenchmarks (google-benchmark) for the engine's hot paths: hashing
// (validating the paper's ~80ns MurmurHash figure from §4.2.4), CRC32C,
// Bloom filter build/probe, skiplist insert/lookup, page encode/decode,
// SSTable build (in memory, and written and synced through PosixEnv),
// memtable-backed point reads, and point reads through a whole DB on a
// warmed page cache while its memtables seal and install, or over an L0 of
// several tiered runs.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/lethe.h"
#include "src/env/env.h"
#include "src/format/bloom.h"
#include "src/format/page.h"
#include "src/format/sstable_builder.h"
#include "src/memtable/memtable.h"
#include "src/memtable/write_batch.h"
#include "src/util/crc32c.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/workload/generator.h"

namespace lethe {
namespace {

using workload::EncodeKey;

void BM_MurmurHash64(benchmark::State& state) {
  std::string key = EncodeKey(0x1234567890abcdefull);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MurmurHash64(key.data(), key.size(), 7));
  }
}
BENCHMARK(BM_MurmurHash64);

void BM_Crc32c4K(benchmark::State& state) {
  std::string page(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(page.data(), page.size()));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc32c4K);

void BM_BloomBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  for (int i = 0; i < n; i++) {
    keys.push_back(EncodeKey(i * 7919));
  }
  for (auto _ : state) {
    BloomFilterBuilder builder(10);
    for (const auto& key : keys) {
      builder.AddKey(key);
    }
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BloomBuild)->Arg(16)->Arg(1024);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1024; i++) {
    builder.AddKey(EncodeKey(i));
  }
  std::string data = builder.Finish();
  BloomFilter filter(data);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.KeyMayMatch(EncodeKey(i++ & 2047)));
  }
}
BENCHMARK(BM_BloomProbe);

// Arg 0: scrambled keys, so every insert searches the skiplist. Arg 1:
// ascending keys (an in-order load), so every insert appends at the tail.
void BM_MemTableAdd(benchmark::State& state) {
  const bool ascending = state.range(0) != 0;
  std::string value(104, 'v');
  uint64_t seq = 0;
  auto mem = std::make_unique<MemTable>();
  for (auto _ : state) {
    if (seq % 100000 == 0) {
      mem = std::make_unique<MemTable>();  // bound arena growth
    }
    seq++;
    const uint64_t key = ascending ? seq * 977 : MurmurHash64(&seq, 8, 0);
    mem->Add(seq, ValueType::kValue, EncodeKey(key), seq, value, seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableAdd)->Arg(0)->Arg(1);

// One group-commit-sized batch: 1000 Puts of 16-byte keys and 100-byte
// values, then Clear, reusing the batch the way a writer loop or the
// server's per-turn batch does.
void BM_WriteBatchPut(benchmark::State& state) {
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 1000; i++) {
    keys.push_back(EncodeKey(i));
  }
  const std::string value(100, 'v');
  WriteBatch batch;
  for (auto _ : state) {
    for (uint64_t i = 0; i < keys.size(); i++) {
      batch.Put(keys[i], i, value);
    }
    benchmark::DoNotOptimize(batch.ApproximateBytes());
    batch.Clear();
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_WriteBatchPut);

void BM_MemTableGet(benchmark::State& state) {
  MemTable mem;
  std::string value(104, 'v');
  for (uint64_t i = 0; i < 10000; i++) {
    mem.Add(i + 1, ValueType::kValue, EncodeKey(i), i, value, i);
  }
  Random rnd(5);
  ParsedEntry entry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Get(EncodeKey(rnd.Uniform(10000)), &entry));
  }
}
BENCHMARK(BM_MemTableGet);

// A background-mode DB on MemEnv whose loaded keys sit in tables, every page
// of them cached. Built once and shared by every run and thread.
struct CachedDb {
  static constexpr uint64_t kKeys = 20000;

  CachedDb() {
    Options options;
    options.env = env.get();
    options.inline_compactions = false;
    options.background_threads = 2;
    options.write_buffer_bytes = 64 << 10;
    options.memory_budget_bytes = 64 << 20;
    if (!DB::Open(options, "cached", &db).ok()) {
      std::abort();
    }
    const std::string value(100, 'v');
    WriteBatch batch;
    for (uint64_t k = 0; k < kKeys; k++) {
      batch.Put(EncodeKey(k), k, value);
      if (batch.Count() == 1000) {
        db->Write(WriteOptions(), &batch).ok();
        batch.Clear();
      }
    }
    std::string result;
    if (!db->Flush().ok() || !db->WaitForCompact().ok()) {
      std::abort();
    }
    for (uint64_t k = 0; k < kKeys; k++) {
      db->Get(ReadOptions(), EncodeKey(k), &result).ok();
    }
  }

  std::unique_ptr<Env> env = NewMemEnv();
  std::unique_ptr<DB> db;
  uint64_t next_put = kKeys;  // thread 0 only
};

// Cached point reads, one per iteration, uniform over the loaded keys. Thread
// 0 also puts one fresh key (above the loaded range) every 16 reads, so the
// memtables seal and flushes install while every thread reads.
void BM_DBGetCached(benchmark::State& state) {
  static CachedDb cached;
  Random rnd(301 + state.thread_index());
  const std::string value(100, 'v');
  std::string result;
  uint64_t reads = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.db->Get(
        ReadOptions(), EncodeKey(rnd.Uniform(CachedDb::kKeys)), &result));
    if (state.thread_index() == 0 && ++reads % 16 == 0) {
      cached.db->Put(WriteOptions(), EncodeKey(cached.next_put++), 0, value)
          .ok();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DBGetCached)->Threads(1)->Threads(4);

// A FADE background-mode DB (so flushes write L0 as tiered runs) whose L0
// holds `runs` runs, all of it cached: the oldest holds every key, and run
// r > 0 every 16th key from r - 1. Each run spans the key space, so a Get
// of a key only the oldest run holds checks every newer run's filter
// first. D_th is out of reach of the logical clock and the size ratio keeps
// L0 from saturating, so nothing merges the runs away.
struct L0RunsDb {
  static constexpr uint64_t kKeys = 20000;

  explicit L0RunsDb(int runs) {
    Options options;
    options.env = env.get();
    options.clock = &clock;
    options.inline_compactions = false;
    options.background_threads = 2;
    options.write_buffer_bytes = 16 << 20;  // only Flush() seals
    options.size_ratio = 100;
    options.delete_persistence_threshold_micros = 1ull << 40;
    options.memory_budget_bytes = 64 << 20;
    if (!DB::Open(options, "l0runs", &db).ok()) {
      std::abort();
    }
    const std::string value(100, 'v');
    for (int r = 0; r < runs; r++) {
      const uint64_t first = r == 0 ? 0 : (r - 1) % 16;
      const uint64_t step = r == 0 ? 1 : 16;
      for (uint64_t k = first; k < kKeys; k += step) {
        db->Put(WriteOptions(), EncodeKey(k), k, value).ok();
      }
      if (!db->Flush().ok()) {
        std::abort();
      }
    }
    if (!db->WaitForCompact().ok() ||
        db->GetLevelSnapshots().front().num_runs !=
            static_cast<uint64_t>(runs)) {
      std::abort();
    }
    std::string result;
    for (uint64_t k = 0; k < kKeys; k++) {
      db->Get(ReadOptions(), EncodeKey(k), &result).ok();
    }
  }

  std::unique_ptr<Env> env = NewMemEnv();
  LogicalClock clock{1};
  std::unique_ptr<DB> db;
};

// Cached point reads, uniform over the keys, through an L0 of
// state.range(0) runs: the read cost each L0 run adds.
void BM_DBGetL0Runs(benchmark::State& state) {
  static std::map<int, std::unique_ptr<L0RunsDb>> dbs;
  std::unique_ptr<L0RunsDb>& built = dbs[static_cast<int>(state.range(0))];
  if (built == nullptr) {
    built = std::make_unique<L0RunsDb>(static_cast<int>(state.range(0)));
  }
  Random rnd(301);
  std::string result;
  for (auto _ : state) {
    benchmark::DoNotOptimize(built->db->Get(
        ReadOptions(), EncodeKey(rnd.Uniform(L0RunsDb::kKeys)), &result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DBGetL0Runs)->Arg(1)->Arg(4)->Arg(8);

void BM_PageEncodeDecode(benchmark::State& state) {
  std::string value(104, 'v');
  for (auto _ : state) {
    PageBuilder builder(4096, 16);
    for (int i = 0; i < 16; i++) {
      ParsedEntry entry;
      std::string key = EncodeKey(i);
      entry.user_key = Slice(key);
      entry.delete_key = i;
      entry.seq = i;
      entry.value = Slice(value);
      builder.Add(entry);
    }
    std::string page = builder.Finish();
    PageContents contents;
    DecodePage(Slice(page), 4096, &contents).ok();
    benchmark::DoNotOptimize(contents.entries.size());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_PageEncodeDecode);

// A point lookup's in-page step on a cache hit: binary search a decoded
// 4 KB page (16-byte keys, 104-byte values, ~32 entries) for a present key
// and decode the match.
void BM_PageLookup(benchmark::State& state) {
  const std::string value(104, 'v');
  std::vector<std::string> keys;
  PageBuilder builder(4096, UINT32_MAX);
  for (int i = 0;; i++) {
    keys.push_back(EncodeKey(i));
    ParsedEntry entry;
    entry.user_key = Slice(keys.back());
    entry.delete_key = i;
    entry.seq = i + 1;
    entry.value = Slice(value);
    if (!builder.Add(entry)) {
      keys.pop_back();
      break;
    }
  }
  const std::string page = builder.Finish();
  PageContents contents;
  if (!DecodePage(Slice(page), 4096, &contents).ok()) {
    state.SkipWithError("page did not decode");
    return;
  }
  const PageEntries& entries = contents.entries;
  Random rnd(9);
  for (auto _ : state) {
    const std::string& key = keys[rnd.Uniform(keys.size())];
    const size_t i = entries.LowerBound(key);
    benchmark::DoNotOptimize(entries[i].value.data());
  }
}
BENCHMARK(BM_PageLookup);

// Entries of 16-byte keys and 104-byte values (130 bytes encoded), delete
// keys scattered, added in key order as a flush adds them.
struct TableInput {
  explicit TableInput(int entries) : value(104, 'v') {
    for (int i = 0; i < entries; i++) {
      keys.push_back(EncodeKey(i));
    }
  }

  void AddTo(SSTableBuilder* builder) const {
    for (size_t i = 0; i < keys.size(); i++) {
      ParsedEntry entry;
      entry.user_key = Slice(keys[i]);
      entry.delete_key = 0x9e3779b97f4a7c15ull * i;
      entry.seq = i;
      entry.value = Slice(value);
      builder->Add(entry);
    }
  }

  std::vector<std::string> keys;
  std::string value;
};

// Args: B (0 = uncapped, the default layout) and h.
void BM_SSTableBuild(benchmark::State& state) {
  auto env = NewMemEnv();
  TableOptions options;
  if (state.range(0) > 0) {
    options.entries_per_page = static_cast<uint32_t>(state.range(0));
  }
  options.pages_per_tile = static_cast<uint32_t>(state.range(1));
  const TableInput input(4096);
  uint64_t table_bytes = 0;
  for (auto _ : state) {
    std::unique_ptr<WritableFile> file;
    env->NewWritableFile("t", &file).ok();
    SSTableBuilder builder(options, file.get());
    input.AddTo(&builder);
    TableProperties props;
    builder.Finish(&props).ok();
    benchmark::DoNotOptimize(props.file_size);
    table_bytes += props.file_size;
  }
  state.SetItemsProcessed(state.iterations() * input.keys.size());
  state.SetBytesProcessed(static_cast<int64_t>(table_bytes));
}
BENCHMARK(BM_SSTableBuild)
    ->Args({16, 1})
    ->Args({16, 16})
    ->Args({0, 1});

// A flush's whole write path on the real filesystem: build a default-layout
// table of ~1 MB through PosixEnv, sync and close it.
void BM_PosixTableWrite(benchmark::State& state) {
  Env* env = Env::Default();
  std::string dir = "/tmp/lethe_bench_micro_XXXXXX";
  if (mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string fname = dir + "/table.sst";
  const TableInput input(8192);
  uint64_t table_bytes = 0;
  for (auto _ : state) {
    std::unique_ptr<WritableFile> file;
    env->NewWritableFile(fname, &file).ok();
    SSTableBuilder builder(TableOptions(), file.get());
    input.AddTo(&builder);
    TableProperties props;
    if (!builder.Finish(&props).ok() || !file->Sync().ok() ||
        !file->Close().ok()) {
      state.SkipWithError("table write failed");
      break;
    }
    benchmark::DoNotOptimize(props.file_size);
    table_bytes += props.file_size;
  }
  env->RemoveFile(fname).ok();
  rmdir(dir.c_str());
  state.SetBytesProcessed(static_cast<int64_t>(table_bytes));
}
BENCHMARK(BM_PosixTableWrite)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lethe
