// Sharded store: one database, four shards, shared resources.
//
//   ./sharded_store [db_path]
//
// Setting Options::num_shards > 1 opens a ShardedDB: N independent LSM
// shards under one facade, each key routed to one shard by its hash. The
// shards SHARE one background worker pool, one page cache, and one memory
// budget — sharding redistributes resources, it does not multiply them.
// Cross-shard reads stay consistent through snapshot cuts: GetSnapshot()
// briefly pauses writes on every shard to pin one causally consistent
// point across the whole key space.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/core/lethe.h"

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/lethe_sharded_store";

  lethe::Options options;
  options.num_shards = 4;               // shard-0 .. shard-3 under `path`
  options.background_threads = 4;       // ONE pool, shared per-shard fair
  options.inline_compactions = false;   // pool mode: flushes/merges overlap
  options.memory_budget_bytes = 8 << 20;  // ONE budget across all shards

  std::unique_ptr<lethe::DB> db;
  lethe::Status status = lethe::DB::Open(options, path, &db);
  if (!status.ok()) {
    fprintf(stderr, "open failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Point writes route to exactly one shard each. A WriteBatch is split
  // by key hash and committed atomically *per shard*.
  lethe::WriteOptions write_options;
  lethe::WriteBatch batch;
  batch.Put("user:alice", /*delete_key=*/1001, "engineering");
  batch.Put("user:bob", /*delete_key=*/1002, "sales");
  batch.Put("user:carol", /*delete_key=*/1003, "research");
  batch.Put("user:dave", /*delete_key=*/1004, "support");
  status = db->Write(write_options, &batch);
  if (!status.ok()) {
    fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // A consistent cut across every shard: no read through this snapshot can
  // see an effect (a later write) without its cause (an earlier one), even
  // when the two landed on different shards.
  const lethe::Snapshot* cut = db->GetSnapshot();
  status = db->Put(write_options, "user:erin", 1005, "after-the-cut");
  if (!status.ok()) {
    fprintf(stderr, "put failed: %s\n", status.ToString().c_str());
    return 1;
  }

  lethe::ReadOptions at_cut;
  at_cut.snapshot = cut;
  std::string value;
  printf("at the cut, user:erin -> %s\n",
         db->Get(at_cut, "user:erin", &value).IsNotFound() ? "NotFound"
                                                           : value.c_str());
  printf("latest,     user:erin -> %s\n",
         db->Get(lethe::ReadOptions(), "user:erin", &value).ok()
             ? value.c_str()
             : "(miss)");

  // Scans K-way-merge the per-shard iterators back into one globally
  // sorted stream — hash routing interleaves keys, the merge re-orders.
  printf("merged scan (latest):\n");
  auto it = db->NewIterator(lethe::ReadOptions());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    printf("  %s = %s\n", it->key().ToString().c_str(),
           it->value().ToString().c_str());
  }
  it.reset();
  db->ReleaseSnapshot(cut);

  // Secondary range deletes fan out to every shard; maintenance and stats
  // aggregate across them.
  status = db->SecondaryRangeDelete(write_options, 0, 1003);
  if (status.ok()) {
    status = db->CompactUntilQuiescent();
  }
  if (!status.ok()) {
    fprintf(stderr, "maintenance failed: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("after SecondaryRangeDelete([0, 1003)): %" PRIu64 " entries live\n",
         db->ApproximateEntryCount());
  printf("pool flushes across all shards: %" PRIu64 "\n",
         db->stats().flushes.load());
  printf("done.\n");
  return 0;
}
