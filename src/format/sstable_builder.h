#ifndef LETHE_FORMAT_SSTABLE_BUILDER_H_
#define LETHE_FORMAT_SSTABLE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/format/bloom.h"
#include "src/format/entry.h"
#include "src/format/page.h"
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

/// The table's properties block: every field above but `multi_version`
/// (the index block carries it) and `file_size` (the file's own length).
void EncodeTableProperties(const TableProperties& props, std::string* dst);
/// Parses a block EncodeTableProperties wrote into the fields it holds.
Status DecodeTableProperties(Slice input, TableProperties* props);

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
/// overflow a page's byte budget (counted in stored bytes, keys after the
/// page's common prefix; see page.h), so the tile still fits in h pages —
/// then "weaves": it orders the tile's pages by delete key while re-sorting
/// each page's entries by sort key, so that
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

  /// The range tombstones added so far, in arrival order.
  const std::vector<RangeTombstone>& range_tombstones() const {
    return range_tombstones_;
  }

 private:
  /// One buffered entry: where Add encoded it in tile_data_, plus the
  /// fields the weave sorts and the page metadata summarizes.
  struct PendingEntry {
    uint32_t offset;      // encoded entry in tile_data_
    uint32_t size;        // its encoded bytes
    uint32_t key_offset;  // its user key in tile_data_
    uint32_t key_size;
    uint64_t delete_key;
    SequenceNumber seq;
    bool tombstone;
  };

  Slice Encoded(const PendingEntry& e) const {
    return Slice(tile_data_.data() + e.offset, e.size);
  }
  Slice UserKey(const PendingEntry& e) const {
    return Slice(tile_data_.data() + e.key_offset, e.key_size);
  }

  /// Re-weighs the buffered tile for the prefix and page header it has
  /// with an entry of sort key `key` added (see Add); a no-op while
  /// neither moves.
  void WeighTileWith(const Slice& key);
  int64_t EntryWeight(int64_t bytes) const;
  /// True if adding an entry of `bytes` page bytes could spill the tile
  /// onto more than h pages.
  bool TileOverflowsWith(int64_t bytes) const;

  Status FlushTile();
  /// Writes one page of the entries, which share a prefix_size-byte key
  /// prefix.
  Status WritePage(std::span<const PendingEntry*> page_entries,
                   size_t prefix_size);

  TableOptions options_;
  WritableFile* file_;
  const uint32_t max_entries_per_page_;  // B, see MaxEntriesPerPage
  Status status_;

  /// The buffered tile: every entry encoded once, back to back, in
  /// tile_data_ (whose size is the tile's encoded bytes), and indexed in
  /// arrival order by tile_.
  std::string tile_data_;
  std::vector<PendingEntry> tile_;
  /// The buffered tile's key prefix and the page room it leaves (the
  /// byte budget less a page header for that prefix and min(B, tile
  /// entries) entries); the sum over the tile of max(B·e, room), e = an
  /// entry's page bytes at that prefix; the largest e and the sum of e. Add
  /// uses them to close a tile by bytes.
  size_t tile_prefix_ = 0;
  int64_t tile_room_ = 0;
  int64_t tile_weight_ = 0;
  int64_t tile_max_entry_bytes_ = 0;
  int64_t tile_entry_bytes_ = 0;
  /// Scratch reused across tiles and pages: the tile in weave order, the
  /// page being cut from it, that page's encoded entries in sort-key order
  /// and its Bloom filter, and the finished page image.
  std::vector<const PendingEntry*> weave_;
  PageSizer page_sizer_;
  std::vector<Slice> page_slices_;
  BloomFilterBuilder bloom_builder_;
  std::string page_;
  /// Metadata accumulated page by page in file order: the filter section
  /// and the index block's per-page records.
  std::string filter_section_;
  std::string page_index_;
  std::vector<uint32_t> tile_page_counts_;
  std::vector<RangeTombstone> range_tombstones_;
  TableProperties props_;
  uint64_t data_bytes_written_ = 0;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_SSTABLE_BUILDER_H_
