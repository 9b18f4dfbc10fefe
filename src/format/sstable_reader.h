#ifndef LETHE_FORMAT_SSTABLE_READER_H_
#define LETHE_FORMAT_SSTABLE_READER_H_

#include <cstdint>
#include <memory>
#include <mutex>
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
#include "src/format/table_blocks.h"
#include "src/format/table_options.h"
#include "src/util/status.h"

namespace lethe {

/// Result of a point lookup inside one table. `value` aliases the decoded
/// page pinned by `page`, so returning a result costs no copy; callers
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
/// Metadata residency has two modes (Options::cache_index_and_filter_blocks):
///
///   *Pinned* (cache_metadata = false, the default): Open performs one
///   contiguous read of [filter section .. props block] and keeps the parsed
///   TableIndex — fences, tiles, range tombstones, and every page's Bloom
///   filter — resident for the reader's lifetime, exactly the paper's
///   memory-resident-filter assumption. The pages()/tiles()/... accessors
///   are valid only in this mode.
///
///   *Cached* (cache_metadata = true): Open reads only the footer. The
///   fence/index block and each tile's filter block load lazily through the
///   shared block cache (admitted at high priority), so metadata memory is
///   bounded by the cache budget and ages out under pressure; every
///   operation re-acquires what it needs via GetIndex/GetTileFilter, and a
///   strict-budget rejection simply leaves the freshly loaded block
///   unpooled for the duration of the call.
class SSTableReader {
 public:
  /// `file_number` + `page_cache` (both optional) connect the reader to the
  /// engine-wide block cache; a nullptr cache means every ReadPage performs
  /// a real Env read (and, with cache_metadata, every metadata access
  /// performs a real metadata load).
  static Status Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size,
                     std::unique_ptr<SSTableReader>* reader,
                     uint64_t file_number = 0,
                     PageCache* page_cache = nullptr,
                     bool cache_metadata = false);

  SSTableReader(const SSTableReader&) = delete;
  SSTableReader& operator=(const SSTableReader&) = delete;

  /// The table's fence/index metadata: the pinned copy, the cached block,
  /// or a freshly loaded one (inserted into the cache when allowed). The
  /// handle keeps every contained Slice alive.
  Status GetIndex(TableIndexHandle* index) const;

  /// Non-loading variant of GetIndex: the pinned index, or a
  /// cache-resident one. Returns false instead of performing any I/O —
  /// for best-effort callers (the picker's invalidation estimate) that
  /// run under the DB mutex and must not read from disk there.
  bool PeekIndex(TableIndexHandle* index) const;

  /// Tile `tile_index`'s Bloom filter block, via the cache when possible.
  /// Unused in pinned mode (filters live in the index buffer there).
  Status GetTileFilter(const TableIndex& index, uint32_t tile_index,
                       FilterBlockHandle* filter) const;

  /// The table's fragmented range-tombstone index, built lazily from the
  /// TableIndex on the first tombstone-consulting read. With a page cache
  /// the handle lives there under the shared budget (rebuilt on
  /// eviction); without one it is memoized on the reader — the tombstone
  /// list is immutable, so the memo can never go stale. `stats` (may be
  /// nullptr) gets the build counters and fragment-count histogram sample.
  Status GetFragmentedRangeTombstones(Statistics* stats,
                                      FragmentedRtHandle* out) const;

  // Pinned-mode conveniences (used by format tests and tools); invalid when
  // the reader was opened with cache_metadata = true — use GetIndex there.
  const TableIndex& index() const { return *pinned_index(); }
  uint32_t num_pages() const { return uint32_t(pinned_index()->pages.size()); }
  uint32_t num_tiles() const { return uint32_t(pinned_index()->tiles.size()); }
  const std::vector<PageInfo>& pages() const { return pinned_index()->pages; }
  const std::vector<TileInfo>& tiles() const { return pinned_index()->tiles; }
  const std::vector<RangeTombstone>& range_tombstones() const {
    return pinned_index()->range_tombstones;
  }
  uint32_t pages_per_tile() const { return pinned_index()->pages_per_tile; }

  /// Point lookup: locates the candidate tile via the sort-key fences, then
  /// probes each live page's Bloom filter (one hash digest per probe) and
  /// binary-searches fetched pages. Returns OK with *found=false if the key
  /// is not in this table. `meta` supplies page liveness (may be nullptr).
  /// `fill_cache` = false serves cache hits but never inserts
  /// (ReadOptions::fill_page_cache).
  /// `max_seq` bounds visibility for snapshot reads: the newest version with
  /// seq <= max_seq is returned; newer versions are skipped. The default
  /// reads the latest version in the table.
  Status Get(const Slice& user_key, const FileMeta* meta, Statistics* stats,
             bool* found, TableGetResult* result, bool fill_cache = true,
             SequenceNumber max_seq = kMaxSequenceNumber) const;

  /// Filter-only membership probe: fences + Bloom filters, no page I/O
  /// (cached-metadata mode may load the index/filter blocks). False means
  /// the key is definitely absent from this table; metadata load errors
  /// conservatively answer true. Used by FADE's blind-delete guard
  /// (§4.1.5).
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

  /// Computes which pages a secondary range delete over delete keys
  /// [lo, hi) fully covers vs. partially overlaps, against the caller's
  /// index handle. Metadata-only; performs no page I/O. Already-dropped
  /// pages are excluded.
  void PlanSecondaryRangeDelete(const TableIndex& index, uint64_t lo,
                                uint64_t hi, const FileMeta* meta,
                                SecondaryDeletePlan* plan) const;

  /// Byte offset of a page within the file (pages are fixed-size).
  uint64_t PageOffset(uint32_t page_index) const {
    return static_cast<uint64_t>(page_index) * options_.page_size_bytes;
  }

  /// Iterator over all live entries in internal-key order. Reads one delete
  /// tile at a time (h pages), sorting it back to sort-key order in memory —
  /// compactions stream through files this way. The iterator pins the index
  /// handle for its lifetime; an index load failure surfaces as a
  /// never-valid iterator carrying the status. `fill_cache` = false keeps
  /// the bulk read from populating (and churning) the decoded-page LRU;
  /// compaction inputs always pass false, user scans pass
  /// ReadOptions::fill_page_cache.
  std::unique_ptr<InternalIterator> NewIterator(const FileMeta* meta,
                                                bool fill_cache = true) const;

  const TableOptions& options() const { return options_; }

 private:
  SSTableReader(const TableOptions& options,
                std::unique_ptr<RandomAccessFile> file, uint64_t file_number,
                PageCache* page_cache, bool cache_metadata)
      : options_(options),
        file_(std::move(file)),
        file_number_(file_number),
        page_cache_(page_cache),
        cache_metadata_(cache_metadata) {}

  Status Init(uint64_t file_size);

  /// The pinned index; asserts the reader is in pinned mode.
  const TableIndex* pinned_index() const;

  /// Cheap per-operation index acquisition: pinned mode hands out the
  /// resident index without touching `*scratch`; cached mode fills
  /// `*scratch` (cache hit or load) and points `*index` into it.
  Status IndexForOp(TableIndexHandle* scratch,
                    const TableIndex** index) const;

  /// Reads and parses the metadata region. `include_filters` selects the
  /// pinned layout (one contiguous [filters..props] read, bloom slices set)
  /// vs the lazy one ([rt..props] only, filters addressed by offset).
  Status LoadIndex(bool include_filters, TableIndexHandle* out) const;

  /// Index of the unique tile whose fence range may contain `user_key`, or
  /// -1 if none.
  static int FindTile(const TableIndex& index, const Slice& user_key);

  TableOptions options_;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_;
  PageCache* page_cache_;  // may be nullptr (cache disabled)
  bool cache_metadata_;

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

  TableIndexHandle pinned_index_;  // set iff !cache_metadata_

  // Fragmented-RT memo for cacheless readers (page_cache_ == nullptr);
  // with a cache the fragmented block lives there instead so its footprint
  // stays under the charge-accounted budget.
  mutable std::mutex frt_mu_;
  mutable FragmentedRtHandle frt_memo_;

  friend class SSTableIterator;
};

}  // namespace lethe

#endif  // LETHE_FORMAT_SSTABLE_READER_H_
