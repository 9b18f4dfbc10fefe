#ifndef LETHE_CORE_OPTIONS_H_
#define LETHE_CORE_OPTIONS_H_

#include <cstdint>

#include "src/env/env.h"
#include "src/format/table_options.h"
#include "src/util/clock.h"

namespace lethe {

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
  /// partial compaction. A leveled flush also cuts its L0 outputs at span
  /// edges, and in background mode under FADE at L1 file boundaries (there
  /// it writes only its buffers, into tiered L0 runs), so L0 files can be much
  /// smaller than this. Default: 1 MB.
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

  /// Memory budget (bytes) for the engine-wide decoded-page cache
  /// (PageCache), an LRU over decoded data pages keyed by (file number,
  /// page generation, page index) and shared by every read scenario: point
  /// lookups, filter-guard probes and iterators. A hit skips both the Env
  /// page read and the entry decode.
  ///
  /// 0 (the default) disables the cache entirely, so every page probe
  /// performs a real Env read — the Fig 6 benches rely on this to report
  /// I/O counts faithful to the paper's cost model. Production configs
  /// should set a budget (e.g. 64 << 20); hit/miss/eviction counters and a
  /// resident-bytes gauge are exported via Statistics (page_cache_*),
  /// updated as each cache operation happens.
  uint64_t page_cache_bytes = 0;

  /// Unified memory budget (bytes) split between the decoded data pages
  /// and the write buffers (memtable + immutable memtables, staked against
  /// the budget through a cache reservation). When set (> 0) it supersedes
  /// page_cache_bytes as the page cache's capacity, and the write path
  /// keeps the reservation current as memtables grow, freeze, and flush.
  /// Table metadata (fences, Bloom filters, range tombstones) stays pinned
  /// per open reader and is not charged. 0 (the default) disables unified
  /// accounting: the page cache (if any) is sized by page_cache_bytes alone
  /// and write buffers are unaccounted, exactly the pre-budget behavior.
  uint64_t memory_budget_bytes = 0;

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
  /// explicit policy (max_imm_memtables, plus, under tiering, an L0
  /// run-count slowdown and stop).
  bool inline_compactions = true;

  /// Background mode: number of worker threads in the background pool.
  /// Workers pull from the shared 4-class priority queue; a flush or
  /// compaction job runs only when its file/key-range footprint is disjoint
  /// from every job already in flight (overlapping jobs defer and re-arm
  /// when the blocker completes), so merge bandwidth scales with the thread
  /// count without ever violating the sorted-run invariants. 2–4 lets
  /// flushes overlap deep compactions under write saturation (see
  /// bench_bg_writer's thread sweep), and lets an in-order load build
  /// successive memtables' flushes side by side (they still install
  /// oldest-first). Default: 1; inline_compactions always runs one worker.
  int background_threads = 1;

  /// Maximum number of disjoint key-range partitions one picked compaction
  /// may be split into (subcompactions). When a merge's inputs span at least
  /// two files, the picker derives up to this many byte-balanced partition
  /// boundaries from the input tables' fences (tile first keys weighted by
  /// tile bytes); each partition merges independently — in
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
  /// pins up to write_buffer_bytes of memory and one WAL file. At 2 or more
  /// under leveling, a lone sealed memtable whose span overlaps L0 is held
  /// until the next seal, and one flush takes both: with FADE off it merges
  /// them into L0, under FADE it writes them once into tiered L0 runs
  /// (docs/architecture.md, "Grouped flush"). A FADE buffer is held too,
  /// until its oldest tombstone has used 60% of
  /// delete_persistence_threshold_micros. On an idle DB a held memtable
  /// stays in memory and in its WAL until then or until an explicit
  /// Flush/WaitForCompact. Default: 2.
  int max_imm_memtables = 2;

  /// Write-ahead logging. The paper's experiments run with the WAL disabled;
  /// recovery tests enable it. Syncing is per write (WriteOptions::sync).
  /// Open replays the WALs one way: a torn tail (the append a crash cut
  /// short) ends the newest log, and any other damage fails Open with
  /// Corruption. DB::Repair is the explicit salvage step: it drops the
  /// damaged frames so the next Open replays the rest. Default: true.
  bool enable_wal = true;

  /// Number of independent LSM shards behind DB::Open. 1 (the default)
  /// opens the classic single-tree engine, byte-identical to every prior
  /// release. > 1 opens a hash-partitioned ShardedDB facade
  /// (src/lsm/sharded_db.h): N full DBImpls under `<name>/shard-<i>`, key k
  /// on shard ShardOf(k, num_shards), all shards sharing ONE background
  /// worker pool (background_threads total, per-shard fair), ONE page cache,
  /// and ONE memory_budget_bytes. Must stay the same for the lifetime of the
  /// on-disk database: rerouting a key orphans its old copies. See
  /// docs/architecture.md ("Sharding").
  int num_shards = 1;

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

/// Per-read knobs. Reads always verify page and metadata checksums.
struct ReadOptions {
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
