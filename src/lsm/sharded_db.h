#ifndef LETHE_LSM_SHARDED_DB_H_
#define LETHE_LSM_SHARDED_DB_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/db.h"
#include "src/core/options.h"
#include "src/core/snapshot.h"
#include "src/core/statistics.h"
#include "src/format/page_cache.h"
#include "src/lsm/bg_work.h"
#include "src/lsm/db_impl.h"

namespace lethe {

/// Key→shard routing for ShardedDB: the interface behind the two built-in
/// policies (Options::shard_router). Implementations are deterministic and
/// thread-safe.
class KeyRouter {
 public:
  virtual ~KeyRouter() = default;

  /// Shard owning `key`, in [0, num_shards).
  virtual int ShardOf(const Slice& key, int num_shards) const = 0;

  /// Shards a sort-key range [begin_key, end_key) may intersect, ascending.
  /// The default fans out to every shard (correct for any router).
  virtual std::vector<int> ShardsOfRange(const Slice& begin_key,
                                         const Slice& end_key,
                                         int num_shards) const;
};

/// ShardRouterKind::kHash — Hash32(key) % num_shards. Uniform spread;
/// sort-key ranges fan out to every shard.
class HashKeyRouter final : public KeyRouter {
 public:
  int ShardOf(const Slice& key, int num_shards) const override;
};

/// ShardRouterKind::kRange — num_shards - 1 ascending split keys carve the
/// key space into contiguous bands; shard i owns [split[i-1], split[i]).
/// Sort-key ranges touch only the overlapping band of shards.
class RangeKeyRouter final : public KeyRouter {
 public:
  explicit RangeKeyRouter(std::vector<std::string> split_keys)
      : split_keys_(std::move(split_keys)) {}

  int ShardOf(const Slice& key, int num_shards) const override;
  std::vector<int> ShardsOfRange(const Slice& begin_key, const Slice& end_key,
                                 int num_shards) const override;

 private:
  const std::vector<std::string> split_keys_;
};

/// N independent LSM shards behind the one DB surface, opened by DB::Open
/// when Options::num_shards > 1 (shard i lives in `<name>/shard-<i>`).
///
/// Shared pools: all shards draw from ONE BackgroundScheduler worker pool
/// (each shard is a scheduler *owner*; dispatch round-robins across owners
/// per priority class, so a write-hot shard cannot starve a sibling's
/// flushes), ONE block/page cache, and ONE memory_budget_bytes — every
/// shard stakes its write-buffer CacheReservation against the shared
/// cache, so a hot shard squeezes cold shards' cached blocks instead of
/// growing the process. Per-shard file-number bands (shard index << 40)
/// keep the shared cache's file-number-keyed entries collision-free.
///
/// Consistency story:
///   - A WriteBatch spanning shards is split by the router and committed
///     per shard: atomic and WAL-protected within each shard, NOT atomic
///     across shards (a crash can persist one shard's half first).
///   - GetSnapshot returns a consistent cross-shard cut: the facade pauses
///     writes on every shard (token acquisition in shard index order —
///     deadlock-free), pins one snapshot per shard, then resumes. No
///     snapshot can observe a write W2 yet miss an earlier-acked write W1
///     on any shard.
///   - NewIterator merges the per-shard snapshot iterators (keys are
///     disjoint across shards, so the merge is a plain K-way min-pick)
///     over one such cut.
///   - SecondaryRangeDelete and maintenance ops fan out to every shard.
class ShardedDB final : public DB {
 public:
  /// `options.num_shards` must be > 1 and validated by the caller
  /// (DB::Open does both).
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* db);

  ~ShardedDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             uint64_t delete_key, const Slice& value) override;
  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status RangeDelete(const WriteOptions& options, const Slice& begin_key,
                     const Slice& end_key) override;
  Status SecondaryRangeDelete(const WriteOptions& options,
                              uint64_t delete_key_begin,
                              uint64_t delete_key_end) override;
  Status GetWithDeleteKey(const ReadOptions& options, const Slice& key,
                          std::string* value, uint64_t* delete_key) override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status Flush() override;
  Status WaitForCompact() override;
  Status CompactUntilQuiescent() override;
  Status CompactAll() override;
  const Statistics& stats() const override;
  std::vector<LevelSnapshot> GetLevelSnapshots() override;
  std::vector<TombstoneAgeSample> GetTombstoneAges() override;
  Status ComputeSpaceAmplification(double* samp) override;
  uint64_t ApproximateEntryCount() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Test hooks.
  DBImpl* TEST_shard(int i) { return shards_[i].get(); }
  BackgroundScheduler* TEST_scheduler() { return scheduler_.get(); }
  PageCache* TEST_page_cache() { return cache_.get(); }
  /// Deliberately BROKEN snapshot-cut mode for checker validation: skips
  /// the cross-shard write pause (and dawdles between per-shard snapshot
  /// acquisitions), so concurrent writers can commit between them and the
  /// cut stops being consistent. The linearizability lane must catch this.
  void TEST_SetSkipSnapshotPause(bool skip) {
    skip_snapshot_pause_.store(skip, std::memory_order_relaxed);
  }
  /// Closes one shard early (for shutdown-ordering regression tests: its
  /// queued jobs must be discarded and its running jobs waited out without
  /// touching the siblings sharing the pool).
  void TEST_CloseShard(int i) { shards_[i].reset(); }
  /// Tree invariants of every (still-open) shard; first violation wins.
  Status TEST_VerifyTreeInvariants();

 private:
  ShardedDB(const Options& resolved, std::string name);

  Status Init();
  int ShardOf(const Slice& key) const {
    return router_->ShardOf(key, num_shards());
  }
  /// Translates a facade snapshot handle in `base` into shard `i`'s
  /// snapshot; passes anything else through untouched.
  ReadOptions ShardReadOptions(const ReadOptions& base, int shard) const;

  Options options_;  // resolved; num_shards > 1
  std::string name_;
  std::unique_ptr<KeyRouter> router_;

  // Shared pools. Declared before shards_: shards detach from the
  // scheduler and release the cache first, then the facade's references —
  // the last ones — tear the pools down.
  std::shared_ptr<BackgroundScheduler> scheduler_;
  std::shared_ptr<PageCache> cache_;                // null without a budget
  // Shared-pool counters (cache hits/evictions, pool dispatches) land
  // here; stats() folds the per-shard counters on top.
  Statistics pool_stats_;

  std::vector<std::unique_ptr<DBImpl>> shards_;

  // Facade snapshot registry: one facade handle → one pinned snapshot per
  // shard. cut_mu_ serializes whole cuts (PauseWrites is not reentrant);
  // snap_mu_ guards the handle map and is safe to take from reads.
  std::mutex cut_mu_;
  mutable std::mutex snap_mu_;
  SnapshotList snapshots_;
  std::unordered_map<const Snapshot*, std::vector<const Snapshot*>>
      snapshot_parts_;
  std::atomic<bool> skip_snapshot_pause_{false};

  mutable std::mutex stats_mu_;
  mutable Statistics agg_stats_;  // rebuilt by stats()
};

/// DB::Open's sharded path (options.num_shards > 1, already validated).
Status OpenShardedDB(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* db);

}  // namespace lethe

#endif  // LETHE_LSM_SHARDED_DB_H_
