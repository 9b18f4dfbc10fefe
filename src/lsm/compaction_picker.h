#ifndef LETHE_LSM_COMPACTION_PICKER_H_
#define LETHE_LSM_COMPACTION_PICKER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/core/options.h"
#include "src/lsm/version.h"
#include "src/lsm/version_set.h"

namespace lethe {

/// What the picker decided to compact and why. Under leveling `inputs` holds
/// one file from `level`, or, where the level holds several runs (L0 when
/// flushes write tiered runs), every file of the level overlapping that one
/// to a fixed point (Version::OverlapClosure); under tiering it holds every
/// file of the level (all runs merge together).
struct CompactionPick {
  enum class Trigger { kNone, kSaturation, kTtlExpiry };

  Trigger trigger = Trigger::kNone;
  int level = -1;
  std::vector<std::shared_ptr<FileMeta>> inputs;

  bool valid() const { return trigger != Trigger::kNone; }
};

/// The oldest live snapshot, as the picker's guards need it. The defaults
/// mean no snapshot is live.
struct OldestSnapshot {
  SequenceNumber seq = kMaxSequenceNumber;
  uint64_t time = UINT64_MAX;  // Options::clock at its creation
};

/// Share of D_th a held FADE buffer's oldest tombstone, and under the L0
/// hold an L0 file's, may use before the hold ends
/// (CompactionPicker::HoldBound).
inline constexpr double kHoldReleaseShare = 0.6;

/// Implements the compaction trigger and file-selection policies of §4.1.4:
///
///   Trigger: a TTL-expired file always wins over saturation (DD); otherwise
///   a level exceeding its capacity triggers (leveling: bytes vs M·T^(i+1);
///   tiering: run count vs T). Level ties go to the smallest level, avoiding
///   write stalls.
///
///   Selection: SO picks the file with minimal key-range overlap with the
///   next level (tie → most tombstones); SD picks the file with the highest
///   estimated invalidation count b = p_f + rd_f (tie → oldest tombstone);
///   DD picks the expired file with the oldest tombstone.
///
///   Beside FADE's TTL, a file has a second deadline, FileMeta::expiry_due
///   (half of its bytes are expired values). It fires under the same
///   kTtlExpiry trigger whether FADE is on or not.
class CompactionPicker {
 public:
  /// `tiered_l0`: flushes write L0 as tiered runs (DBImpl::CutsFlushesAtL1),
  /// which turns on the L0 hold (DeadlineTtls).
  CompactionPicker(const Options& resolved_options, VersionSet* versions,
                   bool tiered_l0 = false)
      : options_(resolved_options),
        versions_(versions),
        tiered_l0_(tiered_l0) {}

  /// `in_flight` (optional) holds file numbers claimed as inputs by merges
  /// already running on the worker pool; those files are skipped rather
  /// than re-picked — under leveling a claimed candidate is passed over, as
  /// is one whose overlap closure in a level of several runs holds a
  /// claimed file; under tiering a level with any claimed file cannot
  /// merge (a tiering merge needs every run of the level) and is skipped
  /// entirely.
  ///
  /// `oldest_snapshot` is the oldest live snapshot. The delete-driven
  /// trigger skips a bottommost file whose tombstones are all newer than
  /// it: they cannot be dropped until that snapshot is released, so a TTL
  /// compaction of the file would make no progress and re-trigger
  /// indefinitely. A due file (expiry_due) is skipped while the snapshot
  /// is older than the file's newest entry or was created before the due
  /// time, for the same reason: the merge could not purge its values.
  CompactionPick Pick(const Version& version, uint64_t now,
                      const std::set<uint64_t>* in_flight = nullptr,
                      OldestSnapshot oldest_snapshot = {}) const;

  /// Capacity of disk level `level` (0-based) in bytes: M · T^(level+1).
  uint64_t LevelCapacityBytes(int level) const;

  /// Earliest clock time past which some file's TTL expires or its expiry
  /// falls due (the earlier of the two deadlines per file), UINT64_MAX if
  /// none will. The write path compares this against "now" as an O(1)
  /// trigger pre-check. Applies the same snapshot guards as Pick, so a
  /// file whose deletes cannot be reclaimed yet does not arm the trigger;
  /// the due-time guard applies only to due times at or before `now`, so a
  /// snapshot live at refresh time never disarms a due time to come.
  uint64_t EarliestTtlExpiry(const Version& version, uint64_t now,
                             OldestSnapshot oldest_snapshot = {}) const;

  /// Idle-buffer flush guard (Dth/2): a memtable whose oldest tombstone is
  /// older than this must flush so an idle database still meets the
  /// persistence bound. UINT64_MAX when FADE is off.
  uint64_t BufferTtl() const;

  /// kHoldReleaseShare of Dth: the tombstone age that ends a held buffer's
  /// hold and, under the L0 hold, an L0 file's wait. UINT64_MAX when FADE is
  /// off (a held buffer then waits for the next seal).
  uint64_t HoldBound() const;

  /// Cumulative expiry thresholds c_i per disk level (slot i = level i),
  /// measured against tombstone age since memtable insertion; c_last = Dth.
  /// Empty when FADE is off.
  std::vector<uint64_t> CumulativeTtls(const Version& version) const;

  /// Byte-balanced subcompaction split points for a merge over `inputs`:
  /// up to `max_partitions - 1` strictly increasing user-key boundaries,
  /// each strictly inside the inputs' combined key span, partitioning the
  /// merge into [b_0=-inf, b_1), [b_1, b_2), ... [b_last, +inf).
  ///
  /// The boundaries are the byte-mass quantiles over the input tables'
  /// fences: each delete tile contributes its min-sort-key fence, weighted
  /// by the tile's share of its file's bytes, and each boundary is a real
  /// fence key — so arbitrary key spaces (hex-ASCII with its '9'→'a' gap,
  /// clustered inserts) partition evenly and whole tiles stay on one side.
  /// A flush's memtable pseudo-file (file_number 0) has no fences and
  /// contributes interpolated synthetic samples instead, which may become
  /// boundaries too.
  ///
  /// Returns empty (no split) when inputs hold fewer than two files, when
  /// max_partitions <= 1, when an input's table cannot be opened (the merge
  /// fails on that input anyway), or when no fence falls strictly inside
  /// the span.
  std::vector<std::string> ComputeSubcompactionBoundaries(
      const std::vector<std::shared_ptr<FileMeta>>& inputs,
      int max_partitions) const;

  /// FADE's b estimate for `file`: exact point tombstone count plus the
  /// estimated number of tree entries invalidated by the file's range
  /// tombstones (interpolated over per-file key ranges — the "system-wide
  /// histogram" stand-in of §4.1.3).
  double EstimateInvalidation(const Version& version,
                              const FileMeta& file) const;

 private:
  CompactionPick PickTtlExpired(const Version& version, uint64_t now,
                                const std::set<uint64_t>* in_flight,
                                OldestSnapshot oldest_snapshot) const;
  CompactionPick PickSaturated(const Version& version,
                               const std::set<uint64_t>* in_flight) const;

  /// CumulativeTtls as the TTL pick applies them: under tiered L0, while
  /// L0 holds at most a T-th of L1's bytes, L0's threshold rises to
  /// HoldBound() (the L0 hold).
  std::vector<uint64_t> DeadlineTtls(const Version& version) const;

  /// Bytes of next-level files overlapping `file` (SO's objective).
  uint64_t OverlapBytes(const Version& version, int level,
                        const FileMeta& file) const;

  Options options_;
  VersionSet* versions_;
  bool tiered_l0_;
};

/// Interprets the first 8 bytes of a sort key as a big-endian integer, the
/// key-space interpolation model used for range-tombstone selectivity
/// estimates.
uint64_t KeyToU64(const Slice& key);

/// Same, starting at byte `offset` (used after common-prefix stripping).
uint64_t KeyToU64At(const Slice& key, size_t offset);

/// Estimated fraction of [smallest, largest] covered by [begin, end).
double RangeOverlapFraction(const Slice& smallest, const Slice& largest,
                            const Slice& begin, const Slice& end);

}  // namespace lethe

#endif  // LETHE_LSM_COMPACTION_PICKER_H_
