#ifndef LETHE_LSM_VERSION_EDIT_H_
#define LETHE_LSM_VERSION_EDIT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/format/file_meta.h"
#include "src/format/secondary_delete_set.h"
#include "src/util/status.h"

namespace lethe {

/// A delta between two versions of the tree, persisted as one MANIFEST
/// record. Removals are applied before additions, so "replace file 7's
/// metadata" (e.g. after a secondary range delete drops pages) is expressed
/// as remove(7) + add(7, new_meta).
struct VersionEdit {
  struct RemovedFile {
    int level = 0;
    uint64_t file_number = 0;
  };

  std::vector<RemovedFile> removed_files;
  std::vector<std::pair<int, FileMeta>> added_files;  // (disk level, meta)

  std::optional<uint64_t> next_file_number;
  std::optional<SequenceNumber> last_sequence;
  std::optional<uint64_t> wal_number;
  std::optional<uint64_t> next_run_id;

  /// Seq→time checkpoints appended at flushes: (first seq of the flushed
  /// batch, creation time of its memtable). FADE resolves a point
  /// tombstone's insertion time as the checkpoint time of the greatest
  /// checkpoint seq <= tombstone seq — a conservative (never-late) floor.
  std::vector<std::pair<SequenceNumber, uint64_t>> seq_time_checkpoints;

  /// When set, replaces the version's pending secondary range deletes
  /// (Version::secondary_deletes; an empty set clears them). Written only
  /// when set, so edits of a DB that never defers one encode as before.
  std::optional<SecondaryDeleteSet> secondary_deletes;

  void Clear() { *this = VersionEdit(); }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice input);
};

}  // namespace lethe

#endif  // LETHE_LSM_VERSION_EDIT_H_
