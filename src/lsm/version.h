#ifndef LETHE_LSM_VERSION_H_
#define LETHE_LSM_VERSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/format/file_meta.h"
#include "src/format/secondary_delete_set.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

struct VersionEdit;

/// One sorted run: files with pairwise non-overlapping sort-key ranges,
/// ordered by smallest_key. Under leveling each disk level holds at most one
/// run; under tiering a level accumulates up to T runs before compaction.
struct SortedRun {
  uint64_t run_id = 0;
  std::vector<std::shared_ptr<FileMeta>> files;

  uint64_t TotalBytes() const;
  uint64_t TotalEntries() const;

  /// Index of the unique file whose range may contain `key`, or -1.
  int FindFile(const Slice& user_key) const;
};

/// Immutable snapshot of the on-disk tree structure. Disk level 0 here is
/// "Level 1" in the paper's numbering (the paper's Level 0 is the memtable).
/// Readers pin a Version via shared_ptr; writers install successors through
/// VersionSet::LogAndApply.
class Version {
 public:
  /// levels[i] = runs of disk level i, oldest run first.
  const std::vector<std::vector<SortedRun>>& levels() const { return levels_; }

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Deepest level index containing any file, or -1 when the tree is empty.
  int DeepestNonEmptyLevel() const;

  /// True if no level deeper than `level` holds any file (so a compaction
  /// into `level` reaches the bottom of the tree and may drop tombstones).
  bool IsBottommost(int level) const;

  uint64_t LevelBytes(int level) const;
  uint64_t LevelLiveEntries(int level) const;
  int LevelRunCount(int level) const;
  uint64_t TotalLiveEntries() const;
  uint64_t TotalFiles() const;

  /// Files of `level` (all runs) overlapping sort-key range [begin, end]
  /// (inclusive bounds; file ranges already cover their range tombstones).
  std::vector<std::shared_ptr<FileMeta>> OverlappingFiles(
      int level, const Slice& begin, const Slice& end) const;

  /// All files in the tree, with their levels.
  std::vector<std::pair<int, std::shared_ptr<FileMeta>>> AllFiles() const;

  /// The secondary range deletes in force over these files but not yet
  /// applied to their pages (null when none): readers and merges hide what
  /// they remove. Metadata counts (num_entries, TotalLiveEntries) stay
  /// physical until the batch that applies them commits.
  const std::shared_ptr<const SecondaryDeleteSet>& secondary_deletes() const {
    return secondary_deletes_;
  }

  /// Builds the successor version resulting from applying `edit`.
  static std::shared_ptr<Version> Apply(const Version* base,
                                        const VersionEdit& edit,
                                        Status* status);

 private:
  std::vector<std::vector<SortedRun>> levels_;
  std::shared_ptr<const SecondaryDeleteSet> secondary_deletes_;
};

}  // namespace lethe

#endif  // LETHE_LSM_VERSION_H_
