#include "src/format/sstable_reader.h"

#include <algorithm>
#include <cassert>

#include "src/format/sstable_format.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace lethe {

Status SSTableReader::Open(const TableOptions& options,
                           std::unique_ptr<RandomAccessFile> file,
                           uint64_t file_size,
                           std::unique_ptr<SSTableReader>* reader,
                           uint64_t file_number, PageCache* page_cache) {
  std::unique_ptr<SSTableReader> table(
      new SSTableReader(options, std::move(file), file_number, page_cache));
  LETHE_RETURN_IF_ERROR(table->Init(file_size));
  *reader = std::move(table);
  return Status::OK();
}

Status SSTableReader::Init(uint64_t file_size) {
  if (file_size < kFooterSize) {
    return Status::Corruption("table too small for footer");
  }
  char footer_scratch[kFooterSize];
  Slice footer;
  LETHE_RETURN_IF_ERROR(file_->Read(file_size - kFooterSize, kFooterSize,
                                    &footer, footer_scratch));
  if (footer.size() != kFooterSize) {
    return Status::Corruption("short footer read");
  }

  uint64_t magic;
  Slice f = footer;
  GetFixed64(&f, &index_offset_);
  GetFixed32(&f, &index_len_);
  GetFixed64(&f, &filter_offset_);
  GetFixed32(&f, &rt_len_);
  GetFixed64(&f, &props_offset_);
  GetFixed32(&f, &props_len_);
  GetFixed32(&f, &meta_crc_);
  GetFixed64(&f, &magic);
  if (magic != kTableMagic) {
    return Status::Corruption("bad table magic");
  }

  // The metadata blocks are contiguous: [filters][rt][index][props][footer];
  // rt_offset and the filter section length are derived, not stored. Every
  // relation is checked via guarded subtraction working back from the known
  // file size, so a corrupt footer cannot slip through uint64 wraparound
  // into a multi-exabyte read or allocation.
  if (props_offset_ > file_size - kFooterSize ||
      props_len_ != file_size - kFooterSize - props_offset_ ||
      index_len_ > props_offset_ ||
      index_offset_ != props_offset_ - index_len_ ||
      rt_len_ > index_offset_) {
    return Status::Corruption("table metadata geometry mismatch");
  }
  rt_offset_ = index_offset_ - rt_len_;
  if (filter_offset_ > rt_offset_ ||
      rt_offset_ - filter_offset_ > UINT32_MAX) {
    return Status::Corruption("table metadata geometry mismatch");
  }
  filter_len_ = static_cast<uint32_t>(rt_offset_ - filter_offset_);
  return LoadIndex();
}

Status SSTableReader::LoadIndex() {
  // One read covers the whole crc'd region; the buffer keeps all of it
  // resident, and every parsed slice aliases it.
  const uint64_t region_len = props_offset_ + props_len_ - filter_offset_;
  index_.buffer.resize(region_len);
  Slice region;
  LETHE_RETURN_IF_ERROR(
      file_->Read(filter_offset_, region_len, &region, index_.buffer.data()));
  if (region.size() != region_len) {
    return Status::Corruption("short metadata read");
  }
  if (region.data() != index_.buffer.data()) {
    memcpy(index_.buffer.data(), region.data(), region_len);
  }
  if (crc32c::Unmask(meta_crc_) !=
      crc32c::Value(index_.buffer.data(), region_len)) {
    return Status::Corruption("table metadata checksum mismatch");
  }

  const char* filter_section = index_.buffer.data();
  const char* rt_begin = filter_section + filter_len_;
  Slice rt_block(rt_begin, rt_len_);
  Slice index_block(rt_begin + rt_len_, index_len_);
  // The props block duplicates builder-side counters already carried by
  // FileMeta; it is retained on disk for tooling but not re-parsed here.

  LETHE_RETURN_IF_ERROR(
      DecodeRangeTombstones(rt_block, &index_.range_tombstones));

  uint32_t num_pages, pages_per_tile, num_tiles, multi_version;
  if (!GetVarint32(&index_block, &num_pages) ||
      !GetVarint32(&index_block, &pages_per_tile) || pages_per_tile == 0 ||
      !GetVarint32(&index_block, &multi_version) || multi_version > 1 ||
      !GetVarint32(&index_block, &num_tiles)) {
    return Status::Corruption("bad index header");
  }
  index_.multi_version = multi_version != 0;
  if (static_cast<uint64_t>(num_pages) * options_.page_size_bytes !=
      filter_offset_) {
    return Status::Corruption("table data geometry mismatch");
  }
  std::vector<uint32_t> tile_page_counts(num_tiles);
  uint32_t total_tile_pages = 0;
  for (uint32_t t = 0; t < num_tiles; t++) {
    if (!GetVarint32(&index_block, &tile_page_counts[t])) {
      return Status::Corruption("bad tile page count");
    }
    total_tile_pages += tile_page_counts[t];
  }
  if (total_tile_pages != num_pages) {
    return Status::Corruption("tile page counts do not cover the file");
  }

  // The filter section is every page's filter, in page order; each page's
  // bloom slice falls out of the per-page lengths as a prefix sum. The
  // 64-bit running sum is capped against the section length at every step:
  // corrupt per-page lengths must surface as Corruption, never as a wrapped
  // prefix sum that drives an out-of-bounds bloom slice.
  index_.pages.reserve(num_pages);
  uint64_t filter_end = 0;
  for (uint32_t i = 0; i < num_pages; i++) {
    PageInfo page;
    Slice min_key, max_key;
    uint32_t filter_len = 0;
    if (!GetLengthPrefixedSlice(&index_block, &min_key) ||
        !GetLengthPrefixedSlice(&index_block, &max_key) ||
        !GetFixed64(&index_block, &page.min_delete_key) ||
        !GetFixed64(&index_block, &page.max_delete_key) ||
        !GetVarint32(&index_block, &page.num_entries) ||
        !GetVarint32(&index_block, &page.num_tombstones) ||
        !GetVarint32(&index_block, &filter_len)) {
      return Status::Corruption("bad index record");
    }
    page.min_sort_key = min_key;
    page.max_sort_key = max_key;
    if (filter_end + filter_len > filter_len_) {
      return Status::Corruption("filter lengths exceed the filter section");
    }
    page.bloom = Slice(filter_section + filter_end, filter_len);
    filter_end += filter_len;
    index_.pages.push_back(page);
  }
  if (filter_end != filter_len_) {
    return Status::Corruption("page filters do not tile the filter section");
  }

  // Materialize tiles from the explicit per-tile page counts.
  uint32_t first = 0;
  for (uint32_t t = 0; t < num_tiles; t++) {
    if (tile_page_counts[t] == 0) {
      continue;
    }
    TileInfo tile;
    tile.first_page = first;
    tile.page_count = tile_page_counts[t];
    first += tile.page_count;
    tile.min_sort_key = index_.pages[tile.first_page].min_sort_key;
    tile.max_sort_key = index_.pages[tile.first_page].max_sort_key;
    for (uint32_t p = tile.first_page + 1;
         p < tile.first_page + tile.page_count; p++) {
      if (index_.pages[p].min_sort_key.compare(tile.min_sort_key) < 0) {
        tile.min_sort_key = index_.pages[p].min_sort_key;
      }
      if (index_.pages[p].max_sort_key.compare(tile.max_sort_key) > 0) {
        tile.max_sort_key = index_.pages[p].max_sort_key;
      }
    }
    index_.tiles.push_back(tile);
  }
  return Status::OK();
}

const FragmentedRangeTombstoneList& SSTableReader::FragmentedRangeTombstones(
    Statistics* stats) const {
  std::call_once(frt_once_, [&] {
    frt_memo_ = std::make_unique<const FragmentedRangeTombstoneList>(
        index_.range_tombstones);
    if (stats != nullptr) {
      stats->rt_fragment_builds.fetch_add(1, std::memory_order_relaxed);
      stats->rt_fragments_total.fetch_add(frt_memo_->num_fragments(),
                                          std::memory_order_relaxed);
      stats->RecordRtFragmentCount(frt_memo_->num_fragments());
    }
  });
  return *frt_memo_;
}

namespace {

/// One MurmurHash digest shared across every per-page filter probed for a
/// key (a delete tile holds up to h candidate pages). Computed lazily on
/// first use; charges hash_computations exactly once.
class LazyDigest {
 public:
  explicit LazyDigest(const Slice& key) : key_(key) {}

  uint64_t get(Statistics* stats) {
    if (!have_) {
      digest_ = BloomFilter::HashKey(key_);
      have_ = true;
      if (stats != nullptr) {
        stats->hash_computations.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return digest_;
  }

 private:
  Slice key_;
  uint64_t digest_ = 0;
  bool have_ = false;
};

}  // namespace

int SSTableReader::FindTile(const Slice& user_key) const {
  // Tiles partition the sort-key space; binary search the first tile whose
  // max fence is >= key, then confirm its min fence.
  const auto& tiles = index_.tiles;
  int lo = 0, hi = static_cast<int>(tiles.size()) - 1, result = -1;
  while (lo <= hi) {
    int mid = lo + (hi - lo) / 2;
    if (tiles[mid].max_sort_key.compare(user_key) >= 0) {
      result = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  if (result < 0) {
    return -1;
  }
  if (tiles[result].min_sort_key.compare(user_key) > 0) {
    return -1;
  }
  return result;
}

Status SSTableReader::ReadPage(uint32_t page_index, PageHandle* contents,
                               uint32_t generation, bool* from_cache,
                               bool fill_cache) const {
  if (from_cache != nullptr) {
    *from_cache = false;
  }
  if (page_cache_ != nullptr &&
      page_cache_->Lookup(file_number_, page_index, contents, generation)) {
    if (from_cache != nullptr) {
      *from_cache = true;
    }
    return Status::OK();
  }
  const uint64_t page_size = options_.page_size_bytes;
  // Readers are shared across threads; the miss-path scratch buffer is
  // thread-local so repeated reads never hit the allocator.
  static thread_local std::vector<char> scratch;
  if (scratch.size() < page_size) {
    scratch.resize(page_size);
  }
  auto decoded = std::make_shared<PageContents>();
  {
    std::shared_lock<std::shared_mutex> lock(page_io_mu_);
    Slice raw;
    LETHE_RETURN_IF_ERROR(
        file_->Read(PageOffset(page_index), page_size, &raw, scratch.data()));
    LETHE_RETURN_IF_ERROR(DecodePage(raw, page_size, decoded.get()));
  }
  *contents = std::move(decoded);
  if (page_cache_ != nullptr && fill_cache) {
    page_cache_->Insert(file_number_, page_index, *contents, generation);
  }
  return Status::OK();
}

Status SSTableReader::RewritePage(RandomWriteFile* writer,
                                  uint32_t page_index,
                                  const Slice& page) const {
  std::unique_lock<std::shared_mutex> lock(page_io_mu_);
  return writer->WriteAt(PageOffset(page_index), page);
}

Status SSTableReader::Get(const Slice& user_key, const FileMeta* meta,
                          Statistics* stats, bool* found,
                          TableGetResult* result, bool fill_cache,
                          SequenceNumber max_seq,
                          const SecondaryDeleteSet* hidden) const {
  *found = false;
  int tile_index = FindTile(user_key);
  if (tile_index < 0) {
    return Status::OK();
  }
  LazyDigest digest(user_key);
  // A key's versions may straddle a page — or with small tiles even a tile
  // — boundary, so a lookup that exhausts one page's matches keeps walking
  // into the next page (and the next tile, while its min fence still admits
  // the key). In a single-version file the first visible match is the
  // answer and returns immediately — no extra I/O over the pre-snapshot
  // read path. A multi-version file (flagged at build time) gives up that
  // early exit: the weave orders a tile's pages by delete key, so the first
  // match in page order need not be the newest visible version, and every
  // candidate page must be compared by sequence.
  bool best_found = false;
  PageHandle best_page;
  for (int t = tile_index;
       t < static_cast<int>(index_.tiles.size()) &&
       index_.tiles[t].min_sort_key.compare(user_key) <= 0;
       t++) {
    const TileInfo& tile = index_.tiles[t];
    for (uint32_t p = tile.first_page; p < tile.first_page + tile.page_count;
         p++) {
      if (meta != nullptr && meta->IsPageDropped(p)) {
        continue;
      }
      const PageInfo& page = index_.pages[p];
      if (page.min_sort_key.compare(user_key) > 0 ||
          page.max_sort_key.compare(user_key) < 0) {
        continue;
      }
      if (stats != nullptr) {
        stats->bloom_probes.fetch_add(1, std::memory_order_relaxed);
      }
      BloomFilter bloom(page.bloom);
      if (!bloom.DigestMayMatch(digest.get(stats))) {
        if (stats != nullptr) {
          stats->bloom_negatives.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      PageHandle contents;
      bool from_cache = false;
      LETHE_RETURN_IF_ERROR(
          ReadPage(p, &contents, meta != nullptr ? meta->page_generation : 0,
                   &from_cache, fill_cache));
      if (stats != nullptr && !from_cache) {
        stats->point_lookup_pages_read.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      // Binary search within the page, in place: entries are sorted by sort
      // key, and only the matching ones are decoded.
      const PageEntries& entries = contents->entries;
      size_t i = entries.LowerBound(user_key);
      if (i < entries.size() && entries.key(i) == user_key) {
        for (; i < entries.size() && entries.key(i) == user_key; ++i) {
          const ParsedEntry entry = entries[i];
          if (entry.seq > max_seq ||
              (hidden != nullptr &&
               hidden->Hides(entry.delete_key, entry.seq))) {
            continue;  // invisible to this read
          }
          if (!best_found || entry.seq > result->seq) {
            best_found = true;
            result->type = entry.type;
            result->seq = entry.seq;
            result->delete_key = entry.delete_key;
            result->value = entry.value;
            best_page = contents;  // pins result->value
          }
          if (!index_.multi_version) {
            // One version per key: this is it.
            *found = true;
            result->page = std::move(best_page);
            return Status::OK();
          }
        }
        continue;  // more versions may hide in later pages of the weave
      }
      if (stats != nullptr) {
        stats->bloom_false_positives.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (best_found) {
    *found = true;
    result->page = std::move(best_page);
  }
  return Status::OK();
}

bool SSTableReader::KeyMayExist(const Slice& user_key, const FileMeta* meta,
                                Statistics* stats) const {
  int tile_index = FindTile(user_key);
  if (tile_index < 0) {
    return false;
  }
  const TileInfo& tile = index_.tiles[tile_index];
  LazyDigest digest(user_key);
  for (uint32_t p = tile.first_page; p < tile.first_page + tile.page_count;
       p++) {
    if (meta != nullptr && meta->IsPageDropped(p)) {
      continue;
    }
    const PageInfo& page = index_.pages[p];
    if (page.min_sort_key.compare(user_key) > 0 ||
        page.max_sort_key.compare(user_key) < 0) {
      continue;
    }
    if (stats != nullptr) {
      stats->bloom_probes.fetch_add(1, std::memory_order_relaxed);
    }
    BloomFilter bloom(page.bloom);
    if (bloom.DigestMayMatch(digest.get(stats))) {
      return true;
    }
    if (stats != nullptr) {
      stats->bloom_negatives.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return false;
}

void SSTableReader::PlanSecondaryRangeDelete(const DeleteKeyIntervals& drops,
                                             const DeleteKeyIntervals& touches,
                                             const FileMeta* meta,
                                             SecondaryDeletePlan* plan) const {
  plan->full_drop_pages.clear();
  plan->partial_pages.clear();
  for (uint32_t p = 0; p < index_.pages.size(); p++) {
    if (meta != nullptr && meta->IsPageDropped(p)) {
      continue;
    }
    const PageInfo& page = index_.pages[p];
    if (page.num_entries == 0) {
      continue;
    }
    const bool overlaps = std::any_of(
        touches.begin(), touches.end(), [&page](const auto& interval) {
          return page.min_delete_key < interval.second &&
                 page.max_delete_key >= interval.first;
        });
    if (!overlaps) {
      continue;
    }
    const bool fully_covered = std::any_of(
        drops.begin(), drops.end(), [&page](const auto& interval) {
          return page.min_delete_key >= interval.first &&
                 page.max_delete_key < interval.second;
        });
    if (fully_covered) {
      plan->full_drop_pages.push_back(p);
    } else {
      plan->partial_pages.push_back(p);
    }
  }
}

namespace {

/// Iterator over one table, in internal-key order. Within the current
/// delete tile, pages load *lazily*: a page is fetched only once the scan
/// reaches its min-sort-key fence. For uncorrelated delete keys every page
/// of a tile spans roughly the tile's whole key range, so all h pages load
/// up front (the paper's h-factor on short scans); for sort/delete-key
/// correlation ≈ 1 the pages' sort ranges are disjoint and load one at a
/// time — delete tiles then cost the same as the classic layout (paper
/// Fig 6L).
class SSTableIterator final : public InternalIterator {
 public:
  SSTableIterator(const SSTableReader* table, const FileMeta* meta,
                  bool fill_cache)
      : table_(table),
        index_(table->index()),
        meta_(meta),
        fill_cache_(fill_cache) {}

  bool Valid() const override { return status_.ok() && current_ != nullptr; }

  void SeekToFirst() override {
    tile_index_ = -1;
    AdvanceTile(nullptr);
  }

  void Seek(const Slice& target) override {
    // First tile whose max fence >= target.
    const auto& tiles = index_.tiles;
    int lo = 0, hi = static_cast<int>(tiles.size()) - 1, result =
        static_cast<int>(tiles.size());
    while (lo <= hi) {
      int mid = lo + (hi - lo) / 2;
      if (tiles[mid].max_sort_key.compare(target) >= 0) {
        result = mid;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    tile_index_ = result - 1;
    AdvanceTile(&target);
    // Per-tile lower bound; every tile after the first candidate holds only
    // keys >= target (tiles partition the sort-key space in order).
    while (Valid() && entry().user_key.compare(target) < 0) {
      Next();
    }
  }

  void Next() override {
    PageCursor* cursor = current_;
    cursor->pos++;
    cursor->DecodeCurrent();
    current_ = nullptr;
    FindNext();
    if (current_ == nullptr && status_.ok()) {
      AdvanceTile(nullptr);
    }
  }

  const ParsedEntry& entry() const override { return current_->entry; }

  Status status() const override { return status_; }

 private:
  /// One loaded page and the position in it. The entry at `pos` is kept
  /// decoded, so the merge in FindNext compares decoded entries.
  struct PageCursor {
    PageHandle contents;  // shared with the page cache when enabled
    size_t pos = 0;
    ParsedEntry entry;  // contents->entries[pos] while valid()

    bool valid() const { return pos < contents->entries.size(); }
    void DecodeCurrent() {
      if (valid()) {
        entry = contents->entries[pos];
      }
    }
  };

  /// Moves to the next non-empty tile; `target` positions within it.
  void AdvanceTile(const Slice* target) {
    const auto& tiles = index_.tiles;
    while (status_.ok()) {
      tile_index_++;
      loaded_.clear();
      pending_.clear();
      current_ = nullptr;
      if (tile_index_ >= static_cast<int>(tiles.size())) {
        return;  // exhausted
      }
      const TileInfo& tile = tiles[tile_index_];
      for (uint32_t p = tile.first_page; p < tile.first_page + tile.page_count;
           p++) {
        if (meta_ != nullptr && meta_->IsPageDropped(p)) {
          continue;
        }
        if (target != nullptr &&
            index_.pages[p].max_sort_key.compare(*target) < 0) {
          continue;  // page entirely before the seek target: never load
        }
        pending_.push_back(p);
      }
      // Pages load in fence order.
      std::sort(pending_.begin(), pending_.end(),
                [this](uint32_t a, uint32_t b) {
                  return index_.pages[a].min_sort_key.compare(
                             index_.pages[b].min_sort_key) < 0;
                });
      FindNext();
      if (current_ == nullptr) {
        continue;  // fully dropped/empty tile
      }
      return;
    }
  }

  /// Picks the smallest current entry across loaded pages, loading any
  /// pending page whose fence could precede it.
  void FindNext() {
    while (status_.ok()) {
      PageCursor* best = nullptr;
      for (auto& cursor : loaded_) {
        if (!cursor->valid()) {
          continue;
        }
        if (best == nullptr ||
            CompareInternal(cursor->entry, best->entry) < 0) {
          best = cursor.get();
        }
      }
      bool must_load =
          !pending_.empty() &&
          (best == nullptr ||
           index_.pages[pending_.front()].min_sort_key.compare(
               best->entry.user_key) <= 0);
      if (!must_load) {
        current_ = best;
        return;
      }
      uint32_t page = pending_.front();
      pending_.erase(pending_.begin());
      auto cursor = std::make_unique<PageCursor>();
      Status s = table_->ReadPage(
          page, &cursor->contents,
          meta_ != nullptr ? meta_->page_generation : 0,
          /*from_cache=*/nullptr, fill_cache_);
      if (!s.ok()) {
        status_ = s;
        return;
      }
      cursor->DecodeCurrent();
      loaded_.push_back(std::move(cursor));
    }
  }

  const SSTableReader* table_;
  const TableIndex& index_;
  const FileMeta* meta_;
  bool fill_cache_;
  Status status_;
  int tile_index_ = -1;
  std::vector<std::unique_ptr<PageCursor>> loaded_;
  std::vector<uint32_t> pending_;  // pages not yet read, fence order
  PageCursor* current_ = nullptr;
};

}  // namespace

std::unique_ptr<InternalIterator> SSTableReader::NewIterator(
    const FileMeta* meta, bool fill_cache) const {
  return std::make_unique<SSTableIterator>(this, meta, fill_cache);
}

}  // namespace lethe
