#ifndef LETHE_FORMAT_SSTABLE_BUILDER_H_
#define LETHE_FORMAT_SSTABLE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/format/bloom.h"
#include "src/format/entry.h"
#include "src/format/range_tombstone.h"
#include "src/format/table_options.h"
#include "src/util/status.h"

namespace lethe {

/// Summary the builder hands back to the flush/compaction code, which turns
/// it into a FileMeta (resolving oldest tombstone *seq* to a wall-clock time
/// through the engine's seq→time map; range tombstone times are exact).
struct TableProperties {
  uint32_t num_pages = 0;
  uint32_t num_tiles = 0;
  uint64_t num_entries = 0;
  uint64_t num_point_tombstones = 0;
  uint64_t num_range_tombstones = 0;
  std::string smallest_key;
  std::string largest_key;
  uint64_t min_delete_key = UINT64_MAX;
  uint64_t max_delete_key = 0;
  SequenceNumber smallest_seq = kMaxSequenceNumber;
  SequenceNumber largest_seq = 0;
  /// Smallest seq among point tombstones; kMaxSequenceNumber if none.
  SequenceNumber oldest_point_tombstone_seq = kMaxSequenceNumber;
  /// Smallest insertion time among range tombstones; kNoTombstoneTime-like
  /// UINT64_MAX if none.
  uint64_t oldest_range_tombstone_time = UINT64_MAX;
  /// True when some user key has more than one version in this file (only
  /// possible when a pinned snapshot kept an older version alive through a
  /// flush or compaction). Point lookups on such a file must compare every
  /// candidate page's match by sequence instead of taking the first hit,
  /// because the key weave orders a tile's pages by delete key, not by
  /// version recency.
  bool multi_version = false;
  uint64_t file_size = 0;
};

/// Writes one SSTable in the Key Weaving Storage Layout (§4.2.1):
///
///   [page 0][page 1]...[page P-1]          (fixed page_size_bytes each)
///   [filter section: one Bloom filter block per delete tile]
///   [range tombstone block]
///   [index block: per-page fences + per-page filter lengths]
///   [properties block]
///   [footer]
///
/// Entries must be Add()ed in internal-key order (sort key ascending). The
/// builder buffers one delete tile — h·B entries, or fewer when B entries
/// overflow a page's byte budget, so the tile still fits in h pages — then
/// "weaves": it orders the tile's pages by delete key while re-sorting each
/// page's entries by sort key, so that
///   - tiles partition the sort-key space (file-level fence pointers on S),
///   - pages inside a tile partition the delete-key space (delete fences on
///     D enable full page drops),
///   - binary search inside a fetched page still works on S.
/// With pages_per_tile == 1 the output is byte-identical in structure to a
/// classic sort-key-only table.
class SSTableBuilder {
 public:
  SSTableBuilder(const TableOptions& options, WritableFile* file);

  SSTableBuilder(const SSTableBuilder&) = delete;
  SSTableBuilder& operator=(const SSTableBuilder&) = delete;

  /// Adds an entry. Keys must arrive in strictly ascending sort-key order
  /// (duplicate user keys must be consolidated by the caller; within a file
  /// every user key appears once, as the paper's buffer semantics imply).
  void Add(const ParsedEntry& entry);

  void AddRangeTombstone(const RangeTombstone& tombstone);

  /// Number of entries currently buffered + written.
  uint64_t num_entries() const { return props_.num_entries; }

  /// Approximate bytes the file will occupy so far (full pages written plus
  /// the buffered tile).
  uint64_t EstimatedSize() const;

  /// Flushes the trailing partial tile, writes metadata blocks and footer.
  Status Finish(TableProperties* props);

 private:
  struct PendingEntry {
    std::string user_key;
    uint64_t delete_key;
    SequenceNumber seq;
    ValueType type;
    std::string value;
  };

  struct PageMetaRecord {
    std::string min_sort_key;
    std::string max_sort_key;
    uint64_t min_delete_key = UINT64_MAX;
    uint64_t max_delete_key = 0;
    uint32_t num_entries = 0;
    uint32_t num_tombstones = 0;
    std::string bloom;
  };

  Status FlushTile();
  Status WritePage(std::vector<const PendingEntry*>& page_entries);

  TableOptions options_;
  WritableFile* file_;
  const uint32_t max_entries_per_page_;  // B, see MaxEntriesPerPage
  Status status_;

  std::vector<PendingEntry> tile_buffer_;
  /// Sum over the buffered tile of max(B·e, budget), e = encoded entry
  /// bytes, and the largest e; Add uses them to close a tile by bytes.
  uint64_t tile_weight_ = 0;
  uint64_t tile_max_entry_bytes_ = 0;
  /// Sum of e over the buffered tile, for EstimatedSize.
  uint64_t tile_bytes_ = 0;
  std::vector<PageMetaRecord> pages_;
  std::vector<uint32_t> tile_page_counts_;
  std::vector<RangeTombstone> range_tombstones_;
  TableProperties props_;
  uint64_t data_bytes_written_ = 0;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_SSTABLE_BUILDER_H_
