#include "src/format/sstable_builder.h"

#include <algorithm>
#include <cassert>

#include "src/format/page.h"
#include "src/format/sstable_format.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace lethe {

SSTableBuilder::SSTableBuilder(const TableOptions& options, WritableFile* file)
    : options_(options),
      file_(file),
      max_entries_per_page_(MaxEntriesPerPage(options)),
      bloom_builder_(options.bloom_bits_per_key) {
  assert(max_entries_per_page_ > 0);
  assert(options_.pages_per_tile > 0);
  tile_.reserve(static_cast<size_t>(max_entries_per_page_) *
                options_.pages_per_tile);
}

void SSTableBuilder::Add(const ParsedEntry& entry) {
  if (!status_.ok()) {
    return;
  }
  // Byte-closed tiles. FlushTile cuts pages greedily, at B entries or when
  // the next entry would overflow the page's byte budget, so when B large
  // entries overflow a page the B·h count rule alone would spill each tile
  // onto a near-empty extra page. Add weighs the tile in page bytes
  // instead. Every page of the tile shares at least the tile's own key
  // prefix and holds at most min(B, tile entries) entries, so charging each
  // entry its size e in a page of that prefix, against a page room of the
  // budget less a header for that many entries and that prefix, never
  // undercounts a page of two or more entries (a longer prefix saves at
  // least as much on the entries as it costs in the header). Weigh every
  // entry max(B·e, room): a page cut by count then weighs >= B·room, and a
  // page cut by bytes plus the entry that did not fit weighs > B·room. A
  // tile reaching h+1 pages thus has weight W + (h-1)·B·max_e > h·B·room
  // (the entries opening pages 2..h counted twice), so closing the tile
  // before an entry that would break that bound keeps it within h pages.
  // When B copies of the largest entry fit the room, every cut is by count
  // and the B·h rule below suffices. With h = 1 and B uncapped the rule is
  // exact: the tile closes when its one page would overflow.
  const uint64_t entry_bytes = EncodedEntrySize(entry);
  const size_t key_size = entry.user_key.size();
  WeighTileWith(entry.user_key);
  int64_t bytes = PageEntrySize(entry_bytes, key_size, tile_prefix_);
  if (!tile_.empty() && TileOverflowsWith(bytes)) {
    status_ = FlushTile();
    if (!status_.ok()) {
      return;
    }
    WeighTileWith(entry.user_key);
    bytes = PageEntrySize(entry_bytes, key_size, tile_prefix_);
  }
  tile_weight_ += EntryWeight(bytes);
  tile_max_entry_bytes_ = std::max(tile_max_entry_bytes_, bytes);
  tile_entry_bytes_ += bytes;

  // Encode the entry once; its page copies these bytes as they are.
  const size_t offset = tile_data_.size();
  tile_data_.resize(offset + entry_bytes);
  EncodeEntry(entry, tile_data_.data() + offset);
  tile_.push_back(PendingEntry{
      static_cast<uint32_t>(offset), static_cast<uint32_t>(entry_bytes),
      static_cast<uint32_t>(offset + VarintLength(key_size)),
      static_cast<uint32_t>(key_size), entry.delete_key, entry.seq,
      entry.IsTombstone()});

  if (props_.num_entries == 0) {
    props_.smallest_key = entry.user_key.ToString();
  } else if (entry.user_key == Slice(props_.largest_key)) {
    // Entries arrive in internal-key order, so versions of one user key are
    // adjacent here even though the weave will scatter them across a tile's
    // pages by delete key. A file holding two versions of a key can only
    // exist when a pinned snapshot kept the older one alive; flag it so the
    // reader knows "first match in page order" is not "newest version".
    props_.multi_version = true;
  }
  props_.largest_key.assign(entry.user_key.data(), entry.user_key.size());
  props_.num_entries++;
  if (entry.IsTombstone()) {
    props_.num_point_tombstones++;
    props_.oldest_point_tombstone_seq =
        std::min(props_.oldest_point_tombstone_seq, entry.seq);
  }
  props_.min_delete_key = std::min(props_.min_delete_key, entry.delete_key);
  props_.max_delete_key = std::max(props_.max_delete_key, entry.delete_key);
  props_.smallest_seq = std::min(props_.smallest_seq, entry.seq);
  props_.largest_seq = std::max(props_.largest_seq, entry.seq);

  if (tile_.size() >=
      uint64_t{max_entries_per_page_} * options_.pages_per_tile) {
    status_ = FlushTile();
  }
}

void SSTableBuilder::WeighTileWith(const Slice& key) {
  const size_t prefix =
      tile_.empty()
          ? key.size()
          : SharedPrefixLength(Slice(tile_data_.data() + tile_[0].key_offset,
                                     tile_prefix_),
                               key);
  const uint32_t page_entries = static_cast<uint32_t>(std::min<uint64_t>(
      max_entries_per_page_, tile_.size() + 1));
  const int64_t room =
      static_cast<int64_t>(PageByteBudget(options_)) -
      static_cast<int64_t>(PageHeaderSize(page_entries, prefix));
  if (!tile_.empty() && prefix == tile_prefix_ && room == tile_room_) {
    return;
  }
  tile_prefix_ = prefix;
  tile_room_ = room;
  tile_weight_ = 0;
  tile_max_entry_bytes_ = 0;
  tile_entry_bytes_ = 0;
  for (const PendingEntry& e : tile_) {
    const int64_t bytes = PageEntrySize(e.size, e.key_size, prefix);
    tile_weight_ += EntryWeight(bytes);
    tile_max_entry_bytes_ = std::max(tile_max_entry_bytes_, bytes);
    tile_entry_bytes_ += bytes;
  }
}

int64_t SSTableBuilder::EntryWeight(int64_t bytes) const {
  return std::max(int64_t{max_entries_per_page_} * bytes, tile_room_);
}

bool SSTableBuilder::TileOverflowsWith(int64_t bytes) const {
  const int64_t b = max_entries_per_page_;
  const int64_t h = options_.pages_per_tile;
  const int64_t max_bytes = std::max(tile_max_entry_bytes_, bytes);
  return b * max_bytes > tile_room_ &&
         tile_weight_ + EntryWeight(bytes) + (h - 1) * b * max_bytes >
             h * b * tile_room_;
}

void SSTableBuilder::AddRangeTombstone(const RangeTombstone& tombstone) {
  range_tombstones_.push_back(tombstone);
  props_.num_range_tombstones++;
  props_.oldest_range_tombstone_time =
      std::min(props_.oldest_range_tombstone_time, tombstone.time);
}

uint64_t SSTableBuilder::EstimatedSize() const {
  // The buffered tile becomes at least n/B pages by count and about
  // bytes/budget pages by bytes (its entries' page bytes at the tile's
  // prefix); with an uncapped B only the byte term sees a KiWi tile of up
  // to h pages. When every page closes by count (B entries always fit the
  // budget) the byte term never exceeds the count term.
  const uint64_t pending_pages = std::max<uint64_t>(
      tile_.size() / max_entries_per_page_,
      static_cast<uint64_t>(tile_entry_bytes_) / PageByteBudget(options_));
  return data_bytes_written_ +
         (pending_pages + 1) * options_.page_size_bytes;
}

Status SSTableBuilder::FlushTile() {
  if (tile_.empty()) {
    return Status::OK();
  }
  // The key weave: order the tile's entries by delete key, then cut into
  // pages of at most B entries (fewer when the page's stored bytes, keys
  // after its common prefix, reach its byte budget first; PageSizer counts
  // them exactly). Consecutive pages thereby partition the tile's
  // delete-key domain. Stable sort keeps the (rare) equal-delete-key
  // entries in sort-key order. A one-page tile skips the sort: Add keeps
  // every tile within h pages, and WritePage puts a page back in sort-key
  // order, so with h = 1 the delete-key order never shows.
  weave_.clear();
  for (const PendingEntry& e : tile_) {
    weave_.push_back(&e);
  }
  const auto by_delete_key = [](const PendingEntry* a, const PendingEntry* b) {
    return a->delete_key < b->delete_key;
  };
  if (options_.pages_per_tile > 1) {
    std::stable_sort(weave_.begin(), weave_.end(), by_delete_key);
  }

  const uint64_t byte_budget = PageByteBudget(options_);
  const uint32_t b = max_entries_per_page_;
  const uint32_t pages_before = props_.num_pages;

  const std::span<const PendingEntry*> weave(weave_);
  size_t page_begin = 0;
  page_sizer_.Clear();
  for (size_t i = 0; i < weave.size(); i++) {
    const PendingEntry& e = *weave[i];
    if (i - page_begin < b &&
        page_sizer_.Add(UserKey(e), e.size, byte_budget)) {
      continue;
    }
    if (i > page_begin) {
      LETHE_RETURN_IF_ERROR(
          WritePage(weave.subspan(page_begin, i - page_begin),
                    page_sizer_.prefix_size()));
      page_begin = i;
      page_sizer_.Clear();
    }
    if (!page_sizer_.Add(UserKey(e), e.size, byte_budget)) {
      return Status::InvalidArgument(
          "entry larger than a page: raise page_size_bytes");
    }
  }
  LETHE_RETURN_IF_ERROR(
      WritePage(weave.subspan(page_begin), page_sizer_.prefix_size()));

  props_.num_tiles++;
  tile_page_counts_.push_back(props_.num_pages - pages_before);
  tile_.clear();
  tile_data_.clear();
  tile_weight_ = 0;
  tile_max_entry_bytes_ = 0;
  tile_entry_bytes_ = 0;
  return Status::OK();
}

Status SSTableBuilder::WritePage(std::span<const PendingEntry*> page_entries,
                                 size_t prefix_size) {
  // Entries within the page go back to sort-key order so in-page binary
  // search on S works after a single page fetch (§4.2.1 "Page layout").
  // No two entries compare equal (a file holds each version once), so a
  // page already in order is exactly what the sort would produce.
  const auto by_sort_key = [this](const PendingEntry* a,
                                  const PendingEntry* b) {
    int c = UserKey(*a).compare(UserKey(*b));
    if (c != 0) {
      return c < 0;
    }
    return a->seq > b->seq;
  };
  if (!std::is_sorted(page_entries.begin(), page_entries.end(), by_sort_key)) {
    std::sort(page_entries.begin(), page_entries.end(), by_sort_key);
  }

  uint64_t min_delete_key = UINT64_MAX;
  uint64_t max_delete_key = 0;
  uint32_t num_tombstones = 0;
  page_slices_.clear();
  for (const PendingEntry* e : page_entries) {
    page_slices_.push_back(Encoded(*e));
    bloom_builder_.AddKey(UserKey(*e));
    min_delete_key = std::min(min_delete_key, e->delete_key);
    max_delete_key = std::max(max_delete_key, e->delete_key);
    if (e->tombstone) {
      num_tombstones++;
    }
  }

  // FlushTile's cut counted these bytes, so the page holds them.
  const Slice prefix(UserKey(*page_entries.front()).data(), prefix_size);
  if (!EncodePage(page_slices_, prefix, options_.page_size_bytes, &page_)) {
    return Status::InvalidArgument(
        "entry does not fit in page: lower entries_per_page or raise "
        "page_size_bytes");
  }
  LETHE_RETURN_IF_ERROR(file_->Append(page_));
  data_bytes_written_ += page_.size();
  const std::string bloom = bloom_builder_.Finish();
  filter_section_.append(bloom);

  // The page's index record; Finish prefixes the block's header.
  PutLengthPrefixedSlice(&page_index_, UserKey(*page_entries.front()));
  PutLengthPrefixedSlice(&page_index_, UserKey(*page_entries.back()));
  PutFixed64(&page_index_, min_delete_key);
  PutFixed64(&page_index_, max_delete_key);
  PutVarint32(&page_index_, static_cast<uint32_t>(page_entries.size()));
  PutVarint32(&page_index_, num_tombstones);
  PutVarint32(&page_index_, static_cast<uint32_t>(bloom.size()));
  props_.num_pages++;
  return Status::OK();
}

void EncodeTableProperties(const TableProperties& props, std::string* dst) {
  PutVarint32(dst, props.num_pages);
  PutVarint32(dst, props.num_tiles);
  PutFixed64(dst, props.num_entries);
  PutFixed64(dst, props.num_point_tombstones);
  PutFixed64(dst, props.num_range_tombstones);
  PutLengthPrefixedSlice(dst, props.smallest_key);
  PutLengthPrefixedSlice(dst, props.largest_key);
  PutFixed64(dst, props.min_delete_key);
  PutFixed64(dst, props.max_delete_key);
  PutFixed64(dst, props.smallest_seq);
  PutFixed64(dst, props.largest_seq);
  PutFixed64(dst, props.oldest_point_tombstone_seq);
  PutFixed64(dst, props.oldest_range_tombstone_time);
}

Status DecodeTableProperties(Slice input, TableProperties* props) {
  Slice smallest_key, largest_key;
  if (!GetVarint32(&input, &props->num_pages) ||
      !GetVarint32(&input, &props->num_tiles) ||
      !GetFixed64(&input, &props->num_entries) ||
      !GetFixed64(&input, &props->num_point_tombstones) ||
      !GetFixed64(&input, &props->num_range_tombstones) ||
      !GetLengthPrefixedSlice(&input, &smallest_key) ||
      !GetLengthPrefixedSlice(&input, &largest_key) ||
      !GetFixed64(&input, &props->min_delete_key) ||
      !GetFixed64(&input, &props->max_delete_key) ||
      !GetFixed64(&input, &props->smallest_seq) ||
      !GetFixed64(&input, &props->largest_seq) ||
      !GetFixed64(&input, &props->oldest_point_tombstone_seq) ||
      !GetFixed64(&input, &props->oldest_range_tombstone_time)) {
    return Status::Corruption("table properties block malformed");
  }
  props->smallest_key = smallest_key.ToString();
  props->largest_key = largest_key.ToString();
  return Status::OK();
}

Status SSTableBuilder::Finish(TableProperties* props) {
  LETHE_RETURN_IF_ERROR(status_);
  LETHE_RETURN_IF_ERROR(FlushTile());

  // Filter section (filter_section_): one contiguous filter block per
  // delete tile — the concatenated per-page Bloom filters in page order —
  // so each tile's filters are independently addressable (and
  // independently cacheable / evictable) without touching any other
  // metadata. Tiles are runs of consecutive pages, so the section is simply
  // every page's filter in file order, as WritePage appended them; the
  // per-page lengths in the index locate the blocks as prefix sums, costing
  // zero bytes over the inline-filter layout.

  // Range tombstone block.
  std::string rt_block;
  EncodeRangeTombstones(range_tombstones_, &rt_block);

  // Index block: tile structure (explicit per-tile page counts, since a tile
  // closed by bytes or at the end of the file spans fewer than h pages, and
  // older tables may hold tiles of more than h pages), then one record per
  // page in file order. Page records store each filter's length only — the
  // bytes live in the filter section.
  std::string index_block;
  PutVarint32(&index_block, props_.num_pages);
  PutVarint32(&index_block, options_.pages_per_tile);
  PutVarint32(&index_block, props_.multi_version ? 1 : 0);
  PutVarint32(&index_block, static_cast<uint32_t>(tile_page_counts_.size()));
  for (uint32_t count : tile_page_counts_) {
    PutVarint32(&index_block, count);
  }
  index_block.append(page_index_);

  std::string props_block;
  EncodeTableProperties(props_, &props_block);

  const uint64_t filter_offset = data_bytes_written_;
  const uint64_t rt_offset = filter_offset + filter_section_.size();
  const uint64_t index_offset = rt_offset + rt_block.size();
  const uint64_t props_offset = index_offset + index_block.size();

  LETHE_RETURN_IF_ERROR(file_->Append(filter_section_));
  LETHE_RETURN_IF_ERROR(file_->Append(rt_block));
  LETHE_RETURN_IF_ERROR(file_->Append(index_block));
  LETHE_RETURN_IF_ERROR(file_->Append(props_block));

  // The crc covers the whole contiguous metadata region, filters included;
  // a pinned open verifies it in one pass, and a lazy index load verifies
  // it while deriving per-tile filter digests for its own later loads.
  uint32_t crc = crc32c::Value(filter_section_.data(), filter_section_.size());
  crc = crc32c::Extend(crc, rt_block.data(), rt_block.size());
  crc = crc32c::Extend(crc, index_block.data(), index_block.size());
  crc = crc32c::Extend(crc, props_block.data(), props_block.size());

  // rt_offset is derivable (index_offset - rt_len), so its footer slot
  // carries the filter section's offset instead — see sstable_format.h.
  std::string footer;
  PutFixed64(&footer, index_offset);
  PutFixed32(&footer, static_cast<uint32_t>(index_block.size()));
  PutFixed64(&footer, filter_offset);
  PutFixed32(&footer, static_cast<uint32_t>(rt_block.size()));
  PutFixed64(&footer, props_offset);
  PutFixed32(&footer, static_cast<uint32_t>(props_block.size()));
  PutFixed32(&footer, crc32c::Mask(crc));
  PutFixed64(&footer, kTableMagic);
  assert(footer.size() == kFooterSize);
  LETHE_RETURN_IF_ERROR(file_->Append(footer));
  LETHE_RETURN_IF_ERROR(file_->Flush());

  props_.file_size = props_offset + props_block.size() + footer.size();
  *props = props_;
  return Status::OK();
}

}  // namespace lethe
