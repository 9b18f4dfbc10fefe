#ifndef LETHE_FORMAT_SSTABLE_READER_H_
#define LETHE_FORMAT_SSTABLE_READER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/core/statistics.h"
#include "src/env/env.h"
#include "src/format/bloom.h"
#include "src/format/entry.h"
#include "src/format/file_meta.h"
#include "src/format/iterator.h"
#include "src/format/page.h"
#include "src/format/page_cache.h"
#include "src/format/range_tombstone.h"
#include "src/format/secondary_delete_set.h"
#include "src/format/table_blocks.h"
#include "src/format/table_options.h"
#include "src/util/status.h"

namespace lethe {

/// Result of a point lookup inside one table. `value` aliases the decoded
/// page `page` shares, so returning a result costs no copy; callers
/// materialize the bytes only at the API boundary.
struct TableGetResult {
  ValueType type = ValueType::kValue;
  SequenceNumber seq = 0;
  uint64_t delete_key = 0;
  Slice value;
  PageHandle page;  // keeps `value` alive
};

/// Which pages a secondary range delete touches in this file: full drops are
/// pages whose entire delete-key range falls inside [lo, hi) — they are
/// dropped via metadata only; partials overlap the boundary and must be read
/// and rewritten in place (0–1 per tile in the common case).
struct SecondaryDeletePlan {
  std::vector<uint32_t> full_drop_pages;
  std::vector<uint32_t> partial_pages;
};

/// Read-side SSTable handle. Immutable and thread-safe after Open; the
/// page-liveness bitmap lives in FileMeta (owned by the version) and is
/// passed into each call so that one cached reader serves all versions.
///
/// Open performs one contiguous read of [filter section .. props block],
/// verifies it, and keeps the parsed TableIndex — fences, tiles, range
/// tombstones, and every page's Bloom filter — resident for the reader's
/// lifetime, exactly the paper's memory-resident-filter assumption. Only
/// data pages go through the (optional) shared PageCache.
class SSTableReader {
 public:
  /// `file_number` + `page_cache` (both optional) connect the reader to the
  /// engine-wide page cache; a nullptr cache means every ReadPage performs
  /// a real Env read.
  static Status Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size,
                     std::unique_ptr<SSTableReader>* reader,
                     uint64_t file_number = 0,
                     PageCache* page_cache = nullptr);

  SSTableReader(const SSTableReader&) = delete;
  SSTableReader& operator=(const SSTableReader&) = delete;

  /// The table's fence/index metadata, valid for the reader's lifetime.
  const TableIndex& index() const { return index_; }

  /// The table's fragmented range-tombstone index, built from index() on
  /// the first tombstone-consulting read and memoized on the reader (the
  /// tombstone list is immutable, so the memo can never go stale). `stats`
  /// (may be nullptr) gets the build counters and fragment-count histogram
  /// sample of that one build.
  const FragmentedRangeTombstoneList& FragmentedRangeTombstones(
      Statistics* stats) const;

  // Conveniences over index().
  uint32_t num_pages() const { return uint32_t(index_.pages.size()); }
  uint32_t num_tiles() const { return uint32_t(index_.tiles.size()); }
  const std::vector<PageInfo>& pages() const { return index_.pages; }
  const std::vector<TileInfo>& tiles() const { return index_.tiles; }
  const std::vector<RangeTombstone>& range_tombstones() const {
    return index_.range_tombstones;
  }
  /// The properties block, as Open verified it (DecodeTableProperties
  /// parses it).
  Slice properties_block() const {
    return Slice(index_.buffer.data() + (props_offset_ - filter_offset_),
                 props_len_);
  }

  /// Point lookup: locates the candidate tile via the sort-key fences, then
  /// probes each live page's Bloom filter (one hash digest per probe) and
  /// binary-searches fetched pages. Returns OK with *found=false if the key
  /// is not in this table. `meta` supplies page liveness (may be nullptr).
  /// `fill_cache` = false serves cache hits but never inserts
  /// (ReadOptions::fill_page_cache).
  /// `max_seq` bounds visibility for snapshot reads: the newest version with
  /// seq <= max_seq is returned; newer versions are skipped. The default
  /// reads the latest version in the table. Versions `hidden` (may be
  /// nullptr) removes are skipped the same way.
  Status Get(const Slice& user_key, const FileMeta* meta, Statistics* stats,
             bool* found, TableGetResult* result, bool fill_cache = true,
             SequenceNumber max_seq = kMaxSequenceNumber,
             const SecondaryDeleteSet* hidden = nullptr) const;

  /// Filter-only membership probe: fences + Bloom filters, no I/O. False
  /// means the key is definitely absent from this table. Used by FADE's
  /// blind-delete guard (§4.1.5).
  bool KeyMayExist(const Slice& user_key, const FileMeta* meta,
                   Statistics* stats) const;

  /// Produces the decoded page, from the page cache when possible (a hit
  /// costs no I/O, decode, or allocation), else via one page-sized Env read
  /// into a reusable thread-local scratch buffer. `generation` is the
  /// caller's FileMeta::page_generation (0 when no meta is in play); it
  /// fences cached decodes across in-place page rewrites. `*from_cache`
  /// (optional) reports whether the page was served without I/O, so the
  /// *_pages_read statistics keep counting real page I/Os only.
  /// `fill_cache` = false still serves hits but never inserts — for reads
  /// whose result is about to be invalidated (secondary-delete rewrites).
  Status ReadPage(uint32_t page_index, PageHandle* contents,
                  uint32_t generation = 0, bool* from_cache = nullptr,
                  bool fill_cache = true) const;

  /// Overwrites page `page_index` in place through `writer` (a secondary
  /// range delete's partial-page rewrite). Excludes this reader's page
  /// reads meanwhile, so none decodes a half-written page.
  Status RewritePage(RandomWriteFile* writer, uint32_t page_index,
                     const Slice& page) const;

  /// Computes which pages a batch of secondary range deletes fully covers
  /// vs. partially overlaps: a page whose delete-key range lies inside one
  /// interval of `drops` is a full drop; any other page that overlaps an
  /// interval of `touches` (a superset of `drops`) is a partial. A single
  /// delete over [lo, hi) passes {{lo, hi}} as both. Metadata-only;
  /// performs no page I/O. Already-dropped pages are excluded.
  void PlanSecondaryRangeDelete(const DeleteKeyIntervals& drops,
                                const DeleteKeyIntervals& touches,
                                const FileMeta* meta,
                                SecondaryDeletePlan* plan) const;

  /// Byte offset of a page within the file (pages are fixed-size).
  uint64_t PageOffset(uint32_t page_index) const {
    return static_cast<uint64_t>(page_index) * options_.page_size_bytes;
  }

  /// Iterator over all live entries in internal-key order. Reads one delete
  /// tile at a time (h pages), sorting it back to sort-key order in memory —
  /// compactions stream through files this way. `fill_cache` = false keeps
  /// the bulk read from populating (and churning) the decoded-page LRU;
  /// compaction inputs always pass false, user scans pass
  /// ReadOptions::fill_page_cache.
  std::unique_ptr<InternalIterator> NewIterator(const FileMeta* meta,
                                                bool fill_cache = true) const;

  const TableOptions& options() const { return options_; }

 private:
  SSTableReader(const TableOptions& options,
                std::unique_ptr<RandomAccessFile> file, uint64_t file_number,
                PageCache* page_cache)
      : options_(options),
        file_(std::move(file)),
        file_number_(file_number),
        page_cache_(page_cache) {}

  Status Init(uint64_t file_size);

  /// Reads, verifies and parses the metadata region (one contiguous
  /// [filters..props] read) into index_.
  Status LoadIndex();

  /// Index of the unique tile whose fence range may contain `user_key`, or
  /// -1 if none.
  int FindTile(const Slice& user_key) const;

  TableOptions options_;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_;
  PageCache* page_cache_;  // may be nullptr (cache disabled)

  // Footer geometry (fixed at Open).
  uint64_t filter_offset_ = 0;
  uint32_t filter_len_ = 0;
  uint64_t rt_offset_ = 0;
  uint32_t rt_len_ = 0;
  uint64_t index_offset_ = 0;
  uint32_t index_len_ = 0;
  uint64_t props_offset_ = 0;
  uint32_t props_len_ = 0;
  uint32_t meta_crc_ = 0;

  TableIndex index_;

  // Page reads hold it shared, RewritePage exclusive: a read racing an
  // in-place write of the same page could return a torn mix of both.
  mutable std::shared_mutex page_io_mu_;

  mutable std::once_flag frt_once_;
  mutable std::unique_ptr<const FragmentedRangeTombstoneList> frt_memo_;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_SSTABLE_READER_H_
