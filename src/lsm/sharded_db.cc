#include "src/lsm/sharded_db.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "src/util/hash.h"

namespace lethe {

// ---- routing --------------------------------------------------------------

int ShardOf(const Slice& key, int num_shards) {
  return static_cast<int>(Hash32(key.data(), key.size(), 0x73686172u) %
                          static_cast<uint32_t>(num_shards));
}

namespace {

/// Fans a call to every open shard: every shard runs, the first failure is
/// reported.
template <typename Fn>
Status FanOut(const std::vector<std::unique_ptr<DBImpl>>& shards, Fn fn) {
  Status result;
  for (const auto& shard : shards) {
    if (shard == nullptr) {
      continue;
    }
    Status s = fn(shard.get());
    if (!s.ok() && result.ok()) {
      result = s;
    }
  }
  return result;
}

// ---- merged iterator ------------------------------------------------------

/// K-way min-merge over per-shard user iterators. Shard key spaces are
/// disjoint (every key routes to exactly one shard), so no dedup is needed
/// and a linear min-pick over K children (K <= 256, typically <= 8) is
/// cheaper than maintaining a heap. Optionally owns the facade snapshot
/// that pins the cut, releasing it on destruction.
class ShardMergeIterator final : public Iterator {
 public:
  ShardMergeIterator(std::vector<std::unique_ptr<Iterator>> children,
                     DB* db, const Snapshot* owned_snapshot)
      : children_(std::move(children)),
        db_(db),
        owned_snapshot_(owned_snapshot) {}

  ~ShardMergeIterator() override {
    children_.clear();  // child DBIters must die before the snapshot pin
    if (owned_snapshot_ != nullptr) {
      db_->ReleaseSnapshot(owned_snapshot_);
    }
  }

  bool Valid() const override { return current_ >= 0; }

  void SeekToFirst() override {
    for (auto& child : children_) {
      child->SeekToFirst();
    }
    FindSmallest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) {
      child->Seek(target);
    }
    FindSmallest();
  }

  void Next() override {
    children_[current_]->Next();
    FindSmallest();
  }

  Slice key() const override { return children_[current_]->key(); }
  Slice value() const override { return children_[current_]->value(); }
  uint64_t delete_key() const override {
    return children_[current_]->delete_key();
  }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }

 private:
  void FindSmallest() {
    current_ = -1;
    for (size_t i = 0; i < children_.size(); i++) {
      if (!children_[i]->Valid()) {
        continue;
      }
      if (current_ < 0 ||
          children_[i]->key().compare(children_[current_]->key()) < 0) {
        current_ = static_cast<int>(i);
      }
    }
  }

  std::vector<std::unique_ptr<Iterator>> children_;
  DB* db_;
  const Snapshot* owned_snapshot_;
  int current_ = -1;
};

}  // namespace

// ---- open / close ---------------------------------------------------------

Status OpenShardedDB(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* db) {
  return ShardedDB::Open(options, name, db);
}

Status ShardedDB::Open(const Options& options, const std::string& name,
                       std::unique_ptr<DB>* db) {
  auto sdb =
      std::unique_ptr<ShardedDB>(new ShardedDB(options.WithDefaults(), name));
  LETHE_RETURN_IF_ERROR(sdb->Init());
  *db = std::move(sdb);
  return Status::OK();
}

ShardedDB::ShardedDB(const Options& resolved, std::string name)
    : options_(resolved), name_(std::move(name)) {}

Status ShardedDB::Init() {
  LETHE_RETURN_IF_ERROR(options_.env->CreateDirIfMissing(name_));

  // The shared pools. background_threads is the TOTAL pool size across all
  // shards, and memory_budget_bytes / page_cache_bytes the total budget:
  // sharding redistributes the same resources, it does not multiply them.
  scheduler_ = std::make_shared<BackgroundScheduler>(
      options_.background_threads, &pool_stats_);
  const uint64_t cache_capacity = options_.memory_budget_bytes > 0
                                      ? options_.memory_budget_bytes
                                      : options_.page_cache_bytes;
  if (cache_capacity > 0) {
    cache_ = std::make_shared<PageCache>(
        cache_capacity, PageCache::kDefaultShardBits, &pool_stats_);
  }

  for (int i = 0; i < options_.num_shards; i++) {
    Options shard_options = options_;
    shard_options.num_shards = 1;
    // Disjoint file-number bands (2^40 numbers each) keep the shared
    // cache's (file number, page) keys collision-free across shards.
    ShardContext context{scheduler_, cache_, static_cast<uint64_t>(i) << 40};
    auto shard = std::make_unique<DBImpl>(
        shard_options, name_ + "/shard-" + std::to_string(i),
        std::move(context));
    LETHE_RETURN_IF_ERROR(shard->Init());
    shards_.push_back(std::move(shard));
  }
  return Status::OK();
}

ShardedDB::~ShardedDB() {
  {
    // Drop any facade snapshots the caller leaked so the per-shard
    // SnapshotLists close clean.
    std::lock_guard<std::mutex> lock(snap_mu_);
    for (auto& [handle, parts] : snapshot_parts_) {
      for (size_t i = 0; i < parts.size(); i++) {
        if (parts[i] != nullptr && shards_[i] != nullptr) {
          shards_[i]->ReleaseSnapshot(parts[i]);
        }
      }
      snapshots_.Delete(handle);
    }
    snapshot_parts_.clear();
  }
  // Each shard detaches itself from the shared pool (discarding its queued
  // jobs, waiting out its running ones); the facade's scheduler_/cache_
  // references then tear the pools down last, by member order.
  shards_.clear();
}

// ---- writes ---------------------------------------------------------------

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      uint64_t delete_key, const Slice& value) {
  return shards_[ShardOf(key, num_shards())]->Put(options, key, delete_key,
                                                  value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[ShardOf(key, num_shards())]->Delete(options, key);
}

Status ShardedDB::RangeDelete(const WriteOptions& options,
                              const Slice& begin_key, const Slice& end_key) {
  if (begin_key.compare(end_key) >= 0) {
    return Status::InvalidArgument("empty range delete");
  }
  // Hash routing scatters a sort-key range over every shard.
  return FanOut(shards_, [&](DBImpl* db) {
    return db->RangeDelete(options, begin_key, end_key);
  });
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null WriteBatch");
  }
  const int n = num_shards();
  // Split by ShardOf. Each sub-batch commits atomically (and WAL-protected)
  // within its shard; the batch as a whole is NOT atomic across shards.
  std::vector<WriteBatch> parts(n);
  std::vector<bool> used(n, false);
  for (const WriteBatch::Op op : batch->ops()) {
    switch (op.kind) {
      case WriteBatch::OpKind::kPut: {
        const int s = ShardOf(op.key, n);
        parts[s].Put(op.key, op.delete_key, op.value);
        used[s] = true;
        break;
      }
      case WriteBatch::OpKind::kPutExpiring: {
        const int s = ShardOf(op.key, n);
        parts[s].PutExpiring(op.key, op.delete_key, op.value);
        used[s] = true;
        break;
      }
      case WriteBatch::OpKind::kDelete: {
        const int s = ShardOf(op.key, n);
        parts[s].Delete(op.key);
        used[s] = true;
        break;
      }
      case WriteBatch::OpKind::kRangeDelete: {
        for (int s = 0; s < n; s++) {
          parts[s].RangeDelete(op.key, op.end_key);
          used[s] = true;
        }
        break;
      }
    }
  }
  Status result;
  for (int i = 0; i < n; i++) {
    if (!used[i]) {
      continue;
    }
    Status s = shards_[i]->Write(options, &parts[i]);
    if (!s.ok() && result.ok()) {
      result = s;  // keep committing the siblings; report the first failure
    }
  }
  return result;
}

Status ShardedDB::SecondaryRangeDelete(const WriteOptions& options,
                                       uint64_t delete_key_begin,
                                       uint64_t delete_key_end) {
  if (delete_key_begin >= delete_key_end) {
    return Status::InvalidArgument("empty secondary range delete");
  }
  // Delete keys are routed nowhere (they are orthogonal to the sort key),
  // so the purge fans out to every shard.
  return FanOut(shards_, [&](DBImpl* db) {
    return db->SecondaryRangeDelete(options, delete_key_begin,
                                    delete_key_end);
  });
}

// ---- reads ----------------------------------------------------------------

ReadOptions ShardedDB::ShardReadOptions(const ReadOptions& base,
                                        int shard) const {
  ReadOptions ro = base;
  if (base.snapshot != nullptr) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = snapshot_parts_.find(base.snapshot);
    if (it != snapshot_parts_.end()) {
      ro.snapshot = it->second[shard];
    }
  }
  return ro;
}

Status ShardedDB::GetWithDeleteKey(const ReadOptions& options,
                                   const Slice& key, std::string* value,
                                   uint64_t* delete_key) {
  const int s = ShardOf(key, num_shards());
  return shards_[s]->GetWithDeleteKey(ShardReadOptions(options, s), key,
                                      value, delete_key);
}

std::unique_ptr<Iterator> ShardedDB::NewIterator(const ReadOptions& options) {
  // Pin a consistent cross-shard cut: the caller's snapshot if given, else
  // an internal one released when the iterator dies. Without the cut, K
  // independent per-shard iterators could each pin a different moment and
  // a scan could see shard A's write but miss an earlier one on shard B.
  const Snapshot* snapshot = options.snapshot;
  const Snapshot* owned = nullptr;
  if (snapshot == nullptr) {
    owned = GetSnapshot();
    snapshot = owned;
  }
  ReadOptions base = options;
  base.snapshot = snapshot;
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(shards_.size());
  for (int i = 0; i < num_shards(); i++) {
    if (shards_[i] == nullptr) {
      continue;
    }
    children.push_back(shards_[i]->NewIterator(ShardReadOptions(base, i)));
  }
  return std::make_unique<ShardMergeIterator>(std::move(children), this,
                                              owned);
}

// ---- snapshots ------------------------------------------------------------

const Snapshot* ShardedDB::GetSnapshot() {
  // Serialize cuts: PauseWrites is not reentrant per shard, and a single
  // file of execution also makes the shard-order token acquisition
  // trivially deadlock-free.
  std::lock_guard<std::mutex> cut(cut_mu_);
  const bool pause = !skip_snapshot_pause_.load(std::memory_order_relaxed);
  if (pause) {
    // Freeze every shard's write token in shard index order. Once all are
    // held, no write anywhere can commit: the per-shard snapshots below
    // form a consistent cut (every acked write is in it; nothing newer is).
    for (auto& shard : shards_) {
      if (shard != nullptr) {
        shard->PauseWrites().ok();
      }
    }
  }
  std::vector<const Snapshot*> parts(shards_.size(), nullptr);
  SequenceNumber max_seq = 0;
  for (size_t i = 0; i < shards_.size(); i++) {
    if (shards_[i] == nullptr) {
      continue;
    }
    if (!pause && i > 0) {
      // Broken-cut test mode: writers keep committing between these
      // acquisitions; dawdle so the inconsistency window is reliably wide
      // enough for the linearizability lane to catch.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    parts[i] = shards_[i]->GetSnapshot();
    max_seq = std::max(max_seq, parts[i]->sequence());
  }
  if (pause) {
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      if (*it != nullptr) {
        (*it)->ResumeWrites();
      }
    }
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  // The facade handle's sequence is informational (the newest per-shard
  // pin); reads translate the handle to the per-shard snapshots.
  const Snapshot* handle = snapshots_.New(max_seq);
  snapshot_parts_.emplace(handle, std::move(parts));
  return handle;
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  auto it = snapshot_parts_.find(snapshot);
  if (it == snapshot_parts_.end()) {
    return;
  }
  for (size_t i = 0; i < it->second.size(); i++) {
    if (it->second[i] != nullptr && shards_[i] != nullptr) {
      shards_[i]->ReleaseSnapshot(it->second[i]);
    }
  }
  snapshots_.Delete(snapshot);
  snapshot_parts_.erase(it);
}

// ---- maintenance ----------------------------------------------------------

Status ShardedDB::Flush() {
  return FanOut(shards_, [](DBImpl* db) { return db->Flush(); });
}

Status ShardedDB::WaitForCompact() {
  return FanOut(shards_, [](DBImpl* db) { return db->WaitForCompact(); });
}

Status ShardedDB::CompactUntilQuiescent() {
  return FanOut(shards_,
                [](DBImpl* db) { return db->CompactUntilQuiescent(); });
}

Status ShardedDB::CompactAll() {
  return FanOut(shards_, [](DBImpl* db) { return db->CompactAll(); });
}

Status ShardedDB::TEST_VerifyTreeInvariants() {
  return FanOut(shards_,
                [](DBImpl* db) { return db->TEST_VerifyTreeInvariants(); });
}

// ---- introspection --------------------------------------------------------

const Statistics& ShardedDB::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  agg_stats_ = pool_stats_;  // shared cache + pool counters, facade-owned
  for (const auto& shard : shards_) {
    if (shard != nullptr) {
      agg_stats_.AddFrom(shard->stats());
    }
  }
  return agg_stats_;
}

std::vector<LevelSnapshot> ShardedDB::GetLevelSnapshots() {
  // Sum per level across shards; ages take the max (oldest anywhere).
  std::map<int, LevelSnapshot> by_level;
  for (const auto& shard : shards_) {
    if (shard == nullptr) {
      continue;
    }
    for (const LevelSnapshot& row : shard->GetLevelSnapshots()) {
      LevelSnapshot& agg = by_level[row.level];
      agg.level = row.level;
      agg.num_files += row.num_files;
      agg.num_runs += row.num_runs;
      agg.num_entries += row.num_entries;
      agg.num_point_tombstones += row.num_point_tombstones;
      agg.num_range_tombstones += row.num_range_tombstones;
      agg.num_pages += row.num_pages;
      agg.bytes += row.bytes;
      agg.oldest_tombstone_age_micros = std::max(
          agg.oldest_tombstone_age_micros, row.oldest_tombstone_age_micros);
    }
  }
  std::vector<LevelSnapshot> rows;
  rows.reserve(by_level.size());
  for (auto& [level, row] : by_level) {
    rows.push_back(row);
  }
  return rows;
}

std::vector<TombstoneAgeSample> ShardedDB::GetTombstoneAges() {
  std::vector<TombstoneAgeSample> samples;
  for (const auto& shard : shards_) {
    if (shard == nullptr) {
      continue;
    }
    std::vector<TombstoneAgeSample> shard_samples = shard->GetTombstoneAges();
    samples.insert(samples.end(), shard_samples.begin(), shard_samples.end());
  }
  return samples;
}

Status ShardedDB::ComputeSpaceAmplification(double* samp) {
  // Per the paper's definition over entry counts: samp = (N - U) / U with
  // N total entries and U unique live keys. Shards partition the key
  // space, so U is the sum of per-shard uniques: recover U_i from each
  // shard's samp_i = (N_i - U_i) / U_i and its entry count N_i.
  double total_n = 0;
  double total_u = 0;
  for (const auto& shard : shards_) {
    if (shard == nullptr) {
      continue;
    }
    double shard_samp = 0;
    LETHE_RETURN_IF_ERROR(shard->ComputeSpaceAmplification(&shard_samp));
    const double n = static_cast<double>(shard->ApproximateEntryCount());
    total_n += n;
    total_u += n / (1.0 + shard_samp);
  }
  *samp = total_u > 0 ? (total_n - total_u) / total_u : 0.0;
  return Status::OK();
}

uint64_t ShardedDB::ApproximateEntryCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) {
      total += shard->ApproximateEntryCount();
    }
  }
  return total;
}

}  // namespace lethe
