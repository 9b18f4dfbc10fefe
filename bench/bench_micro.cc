// Microbenchmarks (google-benchmark) for the engine's hot paths: hashing
// (validating the paper's ~80ns MurmurHash figure from §4.2.4), CRC32C,
// Bloom filter build/probe, skiplist insert/lookup, page encode/decode,
// SSTable build, and memtable-backed point reads.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/format/bloom.h"
#include "src/format/page.h"
#include "src/format/sstable_builder.h"
#include "src/memtable/memtable.h"
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

void BM_MemTableAdd(benchmark::State& state) {
  std::string value(104, 'v');
  uint64_t seq = 0;
  auto mem = std::make_unique<MemTable>();
  for (auto _ : state) {
    if (seq % 100000 == 0) {
      mem = std::make_unique<MemTable>();  // bound arena growth
    }
    seq++;
    mem->Add(seq, ValueType::kValue, EncodeKey(seq * 977), seq, value, seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableAdd);

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

void BM_SSTableBuild(benchmark::State& state) {
  const uint32_t h = static_cast<uint32_t>(state.range(0));
  auto env = NewMemEnv();
  TableOptions options;
  options.entries_per_page = 16;
  options.pages_per_tile = h;
  std::string value(104, 'v');
  const int n = 4096;
  for (auto _ : state) {
    std::unique_ptr<WritableFile> file;
    env->NewWritableFile("t", &file).ok();
    SSTableBuilder builder(options, file.get());
    for (int i = 0; i < n; i++) {
      ParsedEntry entry;
      std::string key = EncodeKey(i);
      entry.user_key = Slice(key);
      entry.delete_key = 0x9e3779b97f4a7c15ull * i;
      entry.seq = i;
      entry.value = Slice(value);
      builder.Add(entry);
    }
    TableProperties props;
    builder.Finish(&props).ok();
    benchmark::DoNotOptimize(props.num_pages);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SSTableBuild)->Arg(1)->Arg(16);

}  // namespace
}  // namespace lethe
