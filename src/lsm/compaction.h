#ifndef LETHE_LSM_COMPACTION_H_
#define LETHE_LSM_COMPACTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/options.h"
#include "src/core/statistics.h"
#include "src/format/iterator.h"
#include "src/format/range_tombstone.h"
#include "src/format/sstable_builder.h"
#include "src/lsm/compaction_picker.h"
#include "src/lsm/version_edit.h"
#include "src/lsm/version_set.h"

namespace lethe {

/// Parameters of one merge (flush or compaction).
struct MergeConfig {
  int output_level = 0;
  uint64_t output_run_id = 0;

  /// True when the merge reaches the bottom of the tree: tombstones (point
  /// and range) have nothing left to invalidate and are discarded, making
  /// the deletes persistent.
  bool bottommost = false;

  /// Sequence numbers of the snapshots live when the merge was scheduled,
  /// ascending. Consolidation must not discard any version a live snapshot
  /// can still observe: an obsolete version is dropped only when the entry
  /// that supersedes it (newer version, covering range tombstone) falls in
  /// the same snapshot stripe, and a bottommost tombstone only when it is
  /// at or below the oldest pinned sequence. Empty (the default) means no
  /// pins — today's drop-everything-obsolete behavior.
  std::vector<SequenceNumber> snapshots;

  /// Options::clock at each snapshot's creation, parallel to `snapshots`
  /// (so also ascending). Empty when `snapshots` is.
  std::vector<uint64_t> snapshot_times;

  /// The secondary range deletes in force when the merge was scheduled
  /// (Version::secondary_deletes; null when none). An entry one of them
  /// removes is dropped as if it had never been written, whatever snapshot
  /// could see it (a secondary range delete is outside snapshot isolation),
  /// so the next-older version of its key decides like any first version.
  std::shared_ptr<const SecondaryDeleteSet> secondary_deletes;

  /// Options::clock reading taken when the merge was scheduled. A value
  /// written by WriteBatch::PutExpiring whose deadline (its delete key) is
  /// in (0, now] is expired unless a snapshot created before that deadline
  /// can see it: the merge writes a tombstone at its sequence in its place,
  /// or at the bottommost level drops it, so no older version of the key
  /// resurfaces. 0 (the default) expires nothing.
  uint64_t now = 0;

  /// Subcompaction window [partition_begin, partition_end) over user keys:
  /// the executor seeks to partition_begin and stops at partition_end, so K
  /// disjoint windows over the same inputs together consume every entry
  /// exactly once (internal-key order groups all versions of a user key,
  /// and windows split only *between* user keys). nullopt = ±infinity.
  /// The caller must pre-clip the input range tombstones to the window —
  /// the executor's own window logic then can't emit a piece outside it.
  std::optional<std::string> partition_begin;
  std::optional<std::string> partition_end;

  /// Forced output cuts, strictly ascending user keys: the current output
  /// closes before the first entry at or past each key, exactly as it
  /// closes at the size target, so a cut never splits a version chain and
  /// never leaves an empty file. Empty (the default) = size cuts only. A
  /// flush sets them at a range-local buffer's span edges and, when flushes
  /// group under FADE, at the L1 file boundaries inside its span
  /// (FlushMemTable).
  std::vector<std::string> cut_keys;

  /// When one logical merge fans out into several partitions, only the
  /// primary partition carries the merge-level counters (flush/compaction
  /// count, trigger attribution, input bytes, bottommost range-tombstone
  /// drops); additive per-entry counters accumulate from every partition.
  bool count_merge_stats = true;

  /// Bottommost accounting: how many input range tombstones the whole
  /// logical merge persists (tombstones_dropped). UINT64_MAX (the
  /// default) = this run's input_range_tombstones list size, correct for
  /// unsplit merges; a partitioned merge's primary partition carries the
  /// pre-clip total instead, so the counter is independent of how many
  /// partitions a straddling tombstone was clipped into.
  uint64_t dropped_range_tombstones = UINT64_MAX;

  /// Cooperative abort, checked periodically during the merge loop: when a
  /// sibling subcompaction fails, the survivors bail out instead of
  /// finishing doomed outputs. nullptr = never aborts.
  const std::atomic<bool>* abort = nullptr;

  /// For statistics attribution.
  bool is_flush = false;
  CompactionPick::Trigger trigger = CompactionPick::Trigger::kNone;
  uint64_t input_bytes = 0;
  uint64_t input_files = 0;
};

/// Streams `input` (already k-way merged, internal-key order) into
/// size-bounded output SSTables at config.output_level, applying the LSM
/// consolidation rules:
///   - entries a pending secondary range delete removes are dropped,
///   - older duplicate versions of a user key are dropped,
///   - entries covered by a newer input range tombstone are dropped,
///   - an expired value (see MergeConfig::now) becomes a tombstone,
///   - at the bottommost level, surviving tombstones are dropped too
///     (this is the moment a delete becomes *persistent*),
///   - surviving range tombstones are re-clipped to the output file
///     boundaries so coverage is preserved without gaps or overlap.
/// Emits added-file records into `edit`. The caller removes the inputs.
class MergeExecutor {
 public:
  MergeExecutor(const Options& resolved_options, VersionSet* versions,
                Statistics* stats)
      : options_(resolved_options), versions_(versions), stats_(stats) {}

  Status Run(InternalIterator* input,
             const std::vector<RangeTombstone>& input_range_tombstones,
             const MergeConfig& config, VersionEdit* edit);

 private:
  struct Output {
    uint64_t file_number = 0;
    std::unique_ptr<WritableFile> file;
    std::unique_ptr<SSTableBuilder> builder;
    std::optional<std::string> window_begin;  // nullopt = -infinity
    std::string first_key;
    std::string last_key;
    bool has_entries = false;
    // Point tombstones the merge read, and whether it wrote one for an
    // expired value: an expiry counts as a delete inserted at `now`.
    SequenceNumber oldest_deleted_seq = kMaxSequenceNumber;
    bool has_expired = false;
    // For FileMeta::expiry_due: (deadline, entry bytes) of each expiring
    // value written, and the entry bytes of everything written.
    std::vector<std::pair<uint64_t, uint64_t>> expiring;
    uint64_t entry_bytes = 0;
  };

  Status OpenOutput(std::unique_ptr<Output>* output,
                    std::optional<std::string> window_begin);

  /// Attaches clipped range tombstones for the window
  /// [output->window_begin, window_end), finalizes the table, and appends
  /// the FileMeta to the edit. window_end == nullopt means +infinity.
  Status FinishOutput(Output* output,
                      const std::vector<RangeTombstone>& rts,
                      std::optional<std::string> window_end,
                      const MergeConfig& config, VersionEdit* edit);

  Options options_;
  VersionSet* versions_;
  Statistics* stats_;
};

/// Convenience used by the DB: one iterator per input file, in `files`
/// order, plus every file's range tombstones (through the table cache).
Status CollectFileInputs(VersionSet* versions,
                         const std::vector<std::shared_ptr<FileMeta>>& files,
                         std::vector<std::unique_ptr<InternalIterator>>* iters,
                         std::vector<RangeTombstone>* rts);

/// FileMeta::expiry_due of a file: the earliest deadline by which the
/// expiring values in `expiring` (deadline, entry bytes) hold at least half
/// of `entry_bytes` (key plus value over all of the file's entries), or
/// FileMeta::kNever if all of them together do not. Sorts `expiring`.
uint64_t ExpiryDue(std::vector<std::pair<uint64_t, uint64_t>>* expiring,
                   uint64_t entry_bytes);

/// The FileMeta fields a table's own bytes determine, from its properties
/// and the range tombstones it holds: counts, seq and delete-key ranges,
/// page count, and the oldest tombstone's sequence. The key span covers the
/// range tombstones too (an exclusive end becomes an inclusive bound, which
/// is conservative), so overlap queries and lookups route through the file.
void SetTableMeta(const TableProperties& props,
                  const std::vector<RangeTombstone>& rts, FileMeta* meta);

/// Clips each tombstone to the user-key window [begin, end) (nullopt =
/// ±infinity), dropping pieces that come up empty. Sequence numbers and
/// insertion times are preserved, so coverage semantics and FADE age
/// accounting are unchanged — the union of the clips over a disjoint
/// window partition equals the original coverage.
std::vector<RangeTombstone> ClipRangeTombstones(
    const std::vector<RangeTombstone>& rts,
    const std::optional<std::string>& begin,
    const std::optional<std::string>& end);

}  // namespace lethe

#endif  // LETHE_LSM_COMPACTION_H_
