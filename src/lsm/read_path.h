#ifndef LETHE_LSM_READ_PATH_H_
#define LETHE_LSM_READ_PATH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/lsm/version_set.h"
#include "src/memtable/memtable.h"

namespace lethe {

/// Everything a read may see, as one immutable state that DBImpl publishes
/// at every seal and version install: a read pins every source with one
/// reference, however many memtables are sealed.
struct ReadState {
  std::shared_ptr<MemTable> mem;               // active
  std::vector<std::shared_ptr<MemTable>> imm;  // sealed, oldest first
  std::shared_ptr<const Version> version;
};

/// One published ReadState and the sequence bound reads through it see:
/// entries and range tombstones with seq > `bound` do not exist for them,
/// nor do entries the version's pending secondary range deletes remove
/// (Version::secondary_deletes). The bound, ReadOptions::snapshot's
/// sequence or else LastSequence, is read before the state is loaded. A
/// write group publishes LastSequence only once it is fully applied, so
/// every entry at or below the bound is in the state (its memtable, or the
/// version it flushed into) and no half-applied group is visible.
struct ReadSnapshot {
  std::shared_ptr<const ReadState> state;
  SequenceNumber bound = kMaxSequenceNumber;

  MemTable* mem() const { return state->mem.get(); }
  const std::vector<std::shared_ptr<MemTable>>& imm() const {
    return state->imm;
  }
  const Version& version() const { return *state->version; }
};

/// What the point-lookup walk (ReadPath::FindNewestVersion) found.
struct NewestVersion {
  bool found = false;    // some source holds a version with seq <= bound
  TableGetResult entry;  // that version; `value` aliases the memtable
                         // arena or the pinned `entry.page`
  // Highest seq <= bound of a range tombstone covering the key, over every
  // source the walk reached (0 = none).
  SequenceNumber cover_seq = 0;

  bool Live() const {
    return found && entry.type != ValueType::kTombstone &&
           cover_seq <= entry.seq;
  }
};

/// Every read, as a function of one ReadSnapshot. It takes no lock and
/// keeps no state but the table cache and the statistics it counts into.
class ReadPath {
 public:
  ReadPath(TableCache* tables, Statistics* stats)
      : tables_(tables), stats_(stats) {}

  /// Point lookup: NotFound unless the key's newest version is live.
  Status Get(const ReadSnapshot& snap, const Slice& key, bool fill_cache,
             std::string* value, uint64_t* delete_key) const;

  /// The one point-lookup walk, behind Get and transaction validation:
  /// mem → imm (newest first) → tables (levels top-down, runs newest
  /// first), stopping at the first source holding a version with seq <=
  /// snap.bound that no pending secondary range delete
  /// (Version::secondary_deletes) removes. Range-tombstone coverage accumulates over that source and
  /// every newer one. A sealed memtable whose span excludes the key is
  /// skipped unprobed (MemTable::MayCover).
  Status FindNewestVersion(const ReadSnapshot& snap, const Slice& key,
                           bool fill_cache, NewestVersion* out) const;

  /// Blind-delete filter (§4.1.5): whether `key` may hold a live version.
  /// Memtables answer exactly; tables by a filter-only probe over the same
  /// candidate files FindNewestVersion walks.
  bool KeyMayExist(const ReadSnapshot& snap, const Slice& key) const;

  /// A scan that pins `snap` for its lifetime.
  std::unique_ptr<Iterator> NewIterator(ReadSnapshot snap,
                                        bool fill_cache) const;

 private:
  TableCache* tables_;
  Statistics* stats_;
};

/// Lazy concatenation over the files of one sorted run: at most one table
/// iterator, which keeps its reader alive, is open at a time. A scan opens
/// one per run, a merge one per input file.
std::unique_ptr<InternalIterator> NewRunIterator(
    TableCache* tables, std::vector<std::shared_ptr<FileMeta>> files,
    bool fill_cache);

/// Appends `file`'s range tombstones to `rts`; free for a file with none.
Status AppendRangeTombstones(TableCache* tables, const FileMeta& file,
                             std::vector<RangeTombstone>* rts);

}  // namespace lethe

#endif  // LETHE_LSM_READ_PATH_H_
