#ifndef LETHE_CORE_OPTIONS_H_
#define LETHE_CORE_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/format/table_options.h"
#include "src/util/clock.h"

namespace lethe {

class BackgroundScheduler;
class KeyRouter;
class PageCache;

/// Merging policy (§2): leveling keeps at most one sorted run per level and
/// greedily merges; tiering accumulates T runs per level before merging them
/// all into the next level.
enum class CompactionStyle {
  kLeveling,
  kTiering,
};

/// FADE's three compaction modes (§4.1.4). The trigger is implicit: a TTL
/// expiry always takes precedence over saturation when FADE is enabled.
///   kMinOverlap     — saturation-driven trigger, overlap-driven selection
///                     (SO): the state-of-the-art baseline, optimizes write
///                     amplification.
///   kMaxTombstones  — saturation-driven trigger, delete-driven selection
///                     (SD): picks the file with the highest estimated
///                     invalidation count b, optimizes space amplification.
/// The delete-driven trigger + delete-driven selection (DD) engages
/// automatically for TTL-expired files when delete_persistence_threshold is
/// set.
enum class FilePickingPolicy {
  kMinOverlap,
  kMaxTombstones,
};

/// How strictly WAL replay treats damage found while scanning the log
/// directory on recovery (cf. the recovery-correctness modes mature LSM
/// engines expose).
///   kAbsoluteConsistency   — any torn tail or checksum mismatch anywhere
///                            fails Open with Corruption. For deployments
///                            where a missing suffix is unacceptable.
///   kTolerateTruncatedTail — a torn tail (truncated frame, as a crash or
///                            power loss leaves behind) is accepted at the
///                            end of the *newest* WAL only; a checksum
///                            mismatch anywhere, or damage in an older WAL,
///                            still fails Open. The default: crash-safe
///                            without silently skipping interior records.
///   kSkipCorruptRecords    — best-effort salvage: on a bad frame the
///                            scanner resynchronizes byte-by-byte to the
///                            next frame whose CRC verifies and keeps
///                            replaying; skipped bytes/records are counted
///                            in Statistics (wal_records_skipped_corrupt).
enum class WalRecoveryMode {
  kAbsoluteConsistency,
  kTolerateTruncatedTail,
  kSkipCorruptRecords,
};

/// Built-in key→shard routing policies for ShardedDB (num_shards > 1).
///   kHash  — shard = Hash32(key) % num_shards: uniform load spread, range
///            operations fan out to every shard.
///   kRange — num_shards-1 ascending split keys partition the key space
///            into contiguous bands; range operations touch only the
///            overlapping shards. Requires shard_split_keys.
/// A custom Options::key_router overrides both.
enum class ShardRouterKind {
  kHash,
  kRange,
};

/// All engine configuration. Defaults mirror the paper's Table 1 / §5 setup
/// where practical (T = 10, 10 bloom bits/key, 1 MB buffer). Each knob notes
/// the paper symbol it corresponds to (when one exists) and its default.
struct Options {
  /// Storage substrate. Defaults to the process-wide POSIX env; tests and
  /// benches inject MemEnv/IoCountingEnv.
  /// Default: nullptr → Env::Default().
  Env* env = nullptr;

  /// Time source for FADE tombstone ages.
  /// Default: nullptr → SystemClock.
  Clock* clock = nullptr;

  /// Create the database directory if missing. Default: true.
  bool create_if_missing = true;

  /// Paper symbol M: write buffer (memtable) capacity in bytes. When the
  /// buffer reaches this size it is swapped to the immutable list and
  /// flushed by the background scheduler. Default: 1 MB (paper §5).
  uint64_t write_buffer_bytes = 1ull << 20;

  /// Paper symbol T: size ratio between adjacent levels. Level i holds
  /// M·T^(i+1) bytes (leveling) or T runs (tiering). Default: 10 (Table 1).
  uint32_t size_ratio = 10;

  /// Target size for files emitted by flushes and compactions; the unit of
  /// partial compaction. Default: 1 MB.
  uint64_t target_file_bytes = 1ull << 20;

  /// Physical layout: page size, B (entries/page), h (pages per delete
  /// tile), bloom bits per key. h = 1 is the classic layout; h > 1 enables
  /// KiWi delete tiles (§4.2).
  TableOptions table;

  /// Merging policy. Default: kLeveling (the paper's primary setup).
  CompactionStyle compaction_style = CompactionStyle::kLeveling;

  /// Compaction file-selection policy. Default: kMinOverlap (SO baseline).
  FilePickingPolicy file_picking = FilePickingPolicy::kMinOverlap;

  /// Paper symbol D_th: delete persistence threshold in clock micros. 0
  /// disables FADE's TTL machinery (unbounded delete persistence latency —
  /// the state-of-the-art behaviour). Default: 0.
  uint64_t delete_persistence_threshold_micros = 0;

  /// FADE's blind-delete guard (§4.1.5): probe Bloom filters before
  /// inserting a point tombstone and skip tombstones for keys that are
  /// definitely absent. Default: false.
  bool filter_blind_deletes = false;

  /// Memory budget (bytes) for the engine-wide decoded-page cache, an LRU
  /// over decoded disk pages keyed by (file number, page index) and shared
  /// by every read scenario: point lookups, filter-guard probes, iterators,
  /// and secondary range lookups. A hit skips both the Env page read and
  /// the entry decode.
  ///
  /// 0 (the default) disables the cache entirely, so every page probe
  /// performs a real Env read — the Fig 6 benches rely on this to report
  /// I/O counts faithful to the paper's cost model. Production configs
  /// should set a budget (e.g. 64 << 20); hit/miss/eviction counters and a
  /// resident-bytes gauge are exported via Statistics (page_cache_*).
  uint64_t page_cache_bytes = 0;

  /// Unified memory budget (bytes) spanning every accounted consumer of
  /// engine memory: decoded data pages, Bloom filter blocks, fence/index
  /// blocks, and the write buffers (memtable + immutable memtables, staked
  /// against the budget through a cache reservation). When set (> 0) it
  /// supersedes page_cache_bytes as the block cache's capacity, and the
  /// write path keeps the reservation current as memtables grow, freeze,
  /// and flush — so this one number bounds the engine's resident data
  /// memory. 0 (the default) disables unified accounting: the page cache
  /// (if any) is sized by page_cache_bytes alone and write buffers are
  /// unaccounted, exactly the pre-budget behavior.
  uint64_t memory_budget_bytes = 0;

  /// Load SSTable metadata — the fence/index block and each delete tile's
  /// Bloom filter block — lazily through the shared block cache (admitted
  /// at high priority, so data pages cannot thrash them out) instead of
  /// pinning it per open reader for the reader's lifetime.
  ///
  /// false (the default) preserves the pinned behavior and its exact open
  /// I/O pattern: one footer read plus one contiguous metadata read per
  /// table open, with filters resident for the reader's lifetime — the
  /// paper's memory-resident-filter assumption, and what the Fig 6 benches
  /// measure. true bounds metadata memory by the cache budget: filters and
  /// fences load on first touch, age out under pressure, and re-load on
  /// the next touch (the lookup path pays an extra metadata read when
  /// probed after eviction). Production trees whose filters outgrow memory
  /// should enable this together with memory_budget_bytes; Validate
  /// rejects the flag without some cache budget (metadata would otherwise
  /// be re-read from disk on every access).
  bool cache_index_and_filter_blocks = false;

  /// Hard budget enforcement for the block cache. false (the default): the
  /// cache may transiently exceed its capacity while entries are pinned
  /// (classic LRU overflow). true: an insert whose charge does not fit the
  /// remaining budget — capacity minus resident charge minus write-buffer
  /// reservations — fails cleanly and the read proceeds unpooled, so
  /// resident charge plus reservations never exceeds the capacity.
  bool strict_cache_capacity = false;

  /// Flushes, compactions, and KiWi secondary-delete execution always run
  /// on the background scheduler (see BackgroundScheduler); writes only
  /// swap full memtables onto an immutable list. This knob picks how the
  /// foreground waits for that work.
  ///
  /// true (the default): every write group and maintenance call ends with
  /// a barrier that keeps the write token until no flush or compaction is
  /// queued or running, on a single worker — the paper's experimental setup
  /// (compactions take priority over writes). Deterministic: a single-
  /// threaded workload produces a byte-identical I/O trace run to run,
  /// which the Fig 6 benches require.
  ///
  /// false: writes return as soon as they are applied; background work
  /// overlaps the foreground, and writers are throttled only through the
  /// explicit policy (max_imm_memtables, plus an L0 run-count slowdown and
  /// stop).
  bool inline_compactions = true;

  /// Background mode: number of worker threads in the background pool.
  /// Workers pull from the shared 4-class priority queue; a flush or
  /// compaction job runs only when its file/key-range footprint is disjoint
  /// from every job already in flight (overlapping jobs defer and re-arm
  /// when the blocker completes), so merge bandwidth scales with the thread
  /// count without ever violating the sorted-run invariants. 2–4 lets
  /// flushes overlap deep compactions under write saturation (see
  /// bench_bg_writer's thread sweep). Default: 1; inline_compactions
  /// always runs one worker.
  int background_threads = 1;

  /// Maximum number of disjoint key-range partitions one picked compaction
  /// may be split into (subcompactions). When a merge's inputs span at least
  /// two files, the picker derives up to this many byte-balanced partition
  /// boundaries from the input files' key spans (file sizes weighted via
  /// key interpolation); each partition merges independently — in
  /// background mode sibling partitions are offered to idle pool workers,
  /// so a single saturated level's merge bandwidth scales with the pool
  /// instead of serializing on one worker — and all partitions commit as a
  /// single atomic VersionEdit. Range tombstones are truncated at partition
  /// boundaries; the resulting tree is logically identical to the unsplit
  /// merge (same entries, tombstone coverage, and FADE age accounting),
  /// though file boundaries may differ. 1 (the default) disables splitting
  /// and preserves byte-identical single-threaded I/O traces for the Fig 6
  /// benches.
  int max_subcompactions = 1;

  /// Background mode: maximum number of immutable memtables awaiting flush
  /// before writers stall (the flush pipeline depth). Each pending memtable
  /// pins up to write_buffer_bytes of memory and one WAL file. Default: 2.
  int max_imm_memtables = 2;

  /// Write-ahead logging. The paper's experiments run with the WAL disabled;
  /// recovery tests enable it. Defaults: enable_wal = true, sync_wal =
  /// false (sync on every commit group when true).
  bool enable_wal = true;
  bool sync_wal = false;

  /// Damage tolerance for WAL replay on Open. See WalRecoveryMode.
  /// Default: kTolerateTruncatedTail.
  WalRecoveryMode wal_recovery_mode = WalRecoveryMode::kTolerateTruncatedTail;

  /// Background-error retry policy (see src/lsm/error_handler.h). When a
  /// background job fails with a retryable error (transient I/O error,
  /// ENOSPC) the DB enters kDegraded and the recovery thread probes the
  /// storage with exponential backoff + jitter. Every retryable job
  /// failure and every failed probe consumes one attempt of a budget of
  /// max_bg_error_retries; only a *committed* background job refills it
  /// (a successful probe does not — it cannot prove the failing job's own
  /// path healed). Once the budget drains the DB falls to kReadOnly
  /// (writes rejected, reads keep serving) but keeps probing at the max
  /// backoff so it can still self-heal when the fault clears. Backoff for
  /// attempt n is min(base << n, max) micros, each multiplied by a jitter
  /// in [0.5, 1.0].
  int max_bg_error_retries = 8;
  uint64_t bg_error_base_backoff_micros = 1000;
  uint64_t bg_error_max_backoff_micros = 1000000;

  /// Number of independent LSM shards behind DB::Open. 1 (the default)
  /// opens the classic single-tree engine, byte-identical to every prior
  /// release. > 1 opens a ShardedDB facade (src/lsm/sharded_db.h): N full
  /// DBImpls under `<name>/shard-<i>`, keys routed by shard_router /
  /// key_router, all shards sharing ONE background worker pool
  /// (background_threads total, per-shard fair), ONE block cache, and ONE
  /// memory_budget_bytes. See docs/architecture.md ("Sharding").
  int num_shards = 1;

  /// Built-in routing policy when num_shards > 1 and key_router is unset.
  /// Default: kHash.
  ShardRouterKind shard_router = ShardRouterKind::kHash;

  /// Range routing (shard_router == kRange): exactly num_shards - 1
  /// strictly ascending split keys. Shard i owns [split[i-1], split[i]);
  /// shard 0 owns everything below split[0], the last shard everything at
  /// or above the final split.
  std::vector<std::string> shard_split_keys;

  /// Fully custom router; overrides shard_router when set. Must be
  /// deterministic and stable for the lifetime of the on-disk database —
  /// rerouting keys of an existing DB silently orphans their old copies.
  std::shared_ptr<KeyRouter> key_router;

  /// Internal (set by ShardedDB when opening its shards; not for users).
  /// When non-null the DBImpl uses this scheduler / block cache instead of
  /// constructing its own, detaching from the scheduler as an owner on
  /// close rather than shutting it down.
  std::shared_ptr<BackgroundScheduler> shared_scheduler;
  std::shared_ptr<PageCache> shared_block_cache;

  /// Internal: first file number this DBImpl may allocate (its manifest,
  /// WALs, and tables all number upward from here). ShardedDB gives each
  /// shard a disjoint band (shard index << 40) so file-number-keyed state
  /// in the shared block cache can never collide across shards. 0 (the
  /// default) numbers from 1, the classic behaviour.
  uint64_t file_number_origin = 0;

  /// Returns a copy with env/clock defaults resolved, and
  /// background_threads = 1 under inline_compactions.
  Options WithDefaults() const;

  /// Validates invariants (nonzero sizes, sane ratios).
  Status Validate() const;

  bool fade_enabled() const {
    return delete_persistence_threshold_micros > 0;
  }
};

/// Per-write knobs.
struct WriteOptions {
  /// Sync the WAL before the write is acknowledged. With group commit the
  /// sync is amortized: one Sync covers every writer in the commit group.
  /// Default: false.
  bool sync = false;
};

class Snapshot;

/// Per-read knobs.
struct ReadOptions {
  bool verify_checksums = true;

  /// Read as of this snapshot: only entries with seq <= snapshot->sequence()
  /// are visible, including through iterators and secondary range lookups.
  /// nullptr (the default) reads the latest committed state. The snapshot
  /// must stay live (not released) for the duration of the read, and for an
  /// iterator, for the iterator's whole lifetime.
  const Snapshot* snapshot = nullptr;

  /// Insert the pages this read decodes into the decoded-page LRU. Cache
  /// *hits* are always served; this only controls population. Set false for
  /// bulk reads that would churn the cache without re-use (large analytical
  /// scans) — the engine itself always reads with fill disabled during
  /// compactions and secondary-delete execution, so background work never
  /// evicts the pages point lookups are hot on. Default: true.
  bool fill_page_cache = true;
};

}  // namespace lethe

#endif  // LETHE_CORE_OPTIONS_H_
