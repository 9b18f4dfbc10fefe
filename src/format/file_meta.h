#ifndef LETHE_FORMAT_FILE_META_H_
#define LETHE_FORMAT_FILE_META_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/format/entry.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// Sentinel meaning "this file contains no tombstones"; such files never
/// TTL-expire (paper: files without tombstones have amax = 0 and are never
/// chosen by the delete-driven trigger).
constexpr uint64_t kNoTombstoneTime = UINT64_MAX;

/// Per-file metadata kept in memory by the version set and persisted in the
/// MANIFEST. FADE consumes entry and tombstone counts (for the b estimate)
/// plus the insertion time of the oldest tombstone (for amax = now -
/// oldest_tombstone_time); the paper notes engines already store
/// equivalents of all of this, so FADE has effectively no metadata
/// footprint (§4.1.3). Expiring values (WriteBatch::PutExpiring) add one
/// more deadline, `expiry_due`: FADE only ages tombstones, so without it an
/// expired value would wait for a merge other work happens to schedule.
struct FileMeta {
  /// `expiry_due` of a file whose expiring values never reach half of it.
  static constexpr uint64_t kNever = UINT64_MAX;

  uint64_t file_number = 0;
  uint64_t file_size = 0;

  /// Sorted-run membership within a level. Leveling keeps a single run per
  /// level (run_id 0); tiering assigns each flushed/compacted run a fresh
  /// monotonically increasing id, so run recency is the id order.
  uint64_t run_id = 0;

  uint64_t num_entries = 0;  // includes point tombstones
  uint64_t num_point_tombstones = 0;
  uint64_t num_range_tombstones = 0;

  std::string smallest_key;  // sort-key range [smallest_key, largest_key]
  std::string largest_key;
  uint64_t min_delete_key = UINT64_MAX;  // delete-key range
  uint64_t max_delete_key = 0;

  SequenceNumber smallest_seq = 0;
  SequenceNumber largest_seq = 0;

  /// Memtable-insertion time (Clock micros) of the oldest point or range
  /// tombstone in the file, kNoTombstoneTime if there are none.
  uint64_t oldest_tombstone_time = kNoTombstoneTime;

  /// Sequence of the oldest tombstone in the file. Lets the delete-driven
  /// trigger tell whether a bottommost file's tombstones are reclaimable
  /// at all: a tombstone can only be dropped once no live snapshot pins it
  /// (seq <= oldest snapshot), and when even the file's *oldest* tombstone
  /// is pinned, a TTL compaction of the file cannot make progress and must
  /// not be scheduled (it would re-trigger forever until the snapshot is
  /// released). In-memory only — not persisted in the MANIFEST: snapshots
  /// do not survive a reopen, so after recovery every on-disk tombstone is
  /// older than any snapshot that can ever be taken, and the decoded
  /// default 0 ("reclaimable") is exact.
  SequenceNumber oldest_tombstone_seq = 0;

  /// Clock time (micros) by which the file's expiring values whose
  /// deadlines have passed hold at least half of its entry bytes (key plus
  /// value), kNever if they never do. Computed when a merge writes the
  /// file, persisted in the MANIFEST only when set (VersionEdit's
  /// kExpiryDue tag). Once past it, the compaction picker takes the file
  /// alone under the kTtlExpiry trigger, FADE or not: at the bottommost
  /// level it is rewritten in place, so a wholly expired file simply goes.
  /// DB::Repair recomputes it from the table's entries.
  uint64_t expiry_due = kNever;

  /// Total data pages in the file and the liveness bitmap maintained by
  /// secondary range deletes. A *full page drop* flips a bit here (a
  /// metadata-only operation, the moral equivalent of a filesystem hole
  /// punch) — the page is never read or rewritten. The bitmap is
  /// authoritative and persisted via the MANIFEST; the file's on-disk index
  /// block intentionally goes stale (paper §4.2.3: full drops need no
  /// filter/index reconstruction).
  uint32_t num_pages = 0;
  uint32_t dropped_page_count = 0;
  std::vector<uint8_t> dropped_pages;  // bitmap; empty means "none dropped"

  /// Page-cache generation, bumped each time a secondary range delete
  /// rewrites or drops any of this file's pages. The generation is part of
  /// the decoded-page cache key, so readers holding the *new* version can
  /// never hit a decode of the pre-rewrite bytes, however reads and the
  /// in-place rewrite interleave. Process-local (not persisted): a reopen
  /// starts with an empty cache, so generation 0 is always consistent.
  uint32_t page_generation = 0;

  /// Live entry / point-tombstone counts per page, populated lazily (from
  /// the file's index block) the first time a secondary range delete touches
  /// the file, so that subsequent full page drops adjust `num_entries` and
  /// `num_point_tombstones` exactly without reading the pages. Empty means
  /// "no page was ever partially rewritten or dropped".
  std::vector<uint32_t> page_live_entries;
  std::vector<uint32_t> page_live_tombstones;

  bool IsPageDropped(uint32_t page) const {
    if (dropped_pages.empty()) {
      return false;
    }
    return (dropped_pages[page / 8] >> (page % 8)) & 1;
  }

  void DropPage(uint32_t page) {
    if (dropped_pages.empty()) {
      dropped_pages.assign((num_pages + 7) / 8, 0);
    }
    uint8_t mask = static_cast<uint8_t>(1 << (page % 8));
    if (!(dropped_pages[page / 8] & mask)) {
      dropped_pages[page / 8] |= mask;
      dropped_page_count++;
    }
  }

  uint32_t live_page_count() const { return num_pages - dropped_page_count; }

  bool HasTombstones() const {
    return num_point_tombstones > 0 || num_range_tombstones > 0;
  }

  /// Age of the file's oldest tombstone at time `now` (micros); 0 if no
  /// tombstones.
  uint64_t TombstoneAge(uint64_t now) const {
    if (!HasTombstones() || oldest_tombstone_time == kNoTombstoneTime ||
        now < oldest_tombstone_time) {
      return 0;
    }
    return now - oldest_tombstone_time;
  }

  bool OverlapsKeyRange(const Slice& begin, const Slice& end) const {
    // [smallest_key, largest_key] vs [begin, end] inclusive bounds.
    return !(Slice(largest_key).compare(begin) < 0 ||
             end.compare(Slice(smallest_key)) < 0);
  }

  bool OverlapsDeleteKeyRange(uint64_t lo, uint64_t hi) const {
    // [min_delete_key, max_delete_key] vs [lo, hi) half-open.
    if (min_delete_key == UINT64_MAX && max_delete_key == 0) {
      return false;  // empty delete-key range (no entries)
    }
    return min_delete_key < hi && max_delete_key >= lo;
  }
};

/// MANIFEST serialization.
void EncodeFileMeta(const FileMeta& meta, std::string* dst);
Status DecodeFileMeta(Slice* input, FileMeta* meta);

}  // namespace lethe

#endif  // LETHE_FORMAT_FILE_META_H_
