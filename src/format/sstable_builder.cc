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
      max_entries_per_page_(MaxEntriesPerPage(options)) {
  assert(max_entries_per_page_ > 0);
  assert(options_.pages_per_tile > 0);
  tile_buffer_.reserve(static_cast<size_t>(max_entries_per_page_) *
                       options_.pages_per_tile);
}

void SSTableBuilder::Add(const ParsedEntry& entry) {
  if (!status_.ok()) {
    return;
  }
  // Byte-closed tiles. FlushTile cuts pages greedily, at B entries or at the
  // byte budget, so when B large entries overflow a page the B·h count rule
  // alone would spill each tile onto a near-empty extra page. Weigh every
  // entry max(B·e, budget), e its encoded bytes: a page cut by count then
  // weighs >= B·budget, and a page cut by bytes plus the entry that did not
  // fit weighs > B·budget. A tile reaching h+1 pages thus has tile weight
  // W + (h-1)·B·max_e > h·B·budget (the entries opening pages 2..h counted
  // twice), so closing the tile before an entry that would break that
  // bound keeps it within h pages. When B copies of the largest entry fit
  // a page, every cut is by count and the B·h rule below suffices.
  const uint64_t b = max_entries_per_page_;
  const uint64_t h = options_.pages_per_tile;
  const uint64_t budget = PageByteBudget(options_);
  const uint64_t entry_bytes = EncodedEntrySize(entry);
  const uint64_t max_bytes = std::max(tile_max_entry_bytes_, entry_bytes);
  const uint64_t weight = std::max(b * entry_bytes, budget);
  if (!tile_buffer_.empty() && b * max_bytes > budget &&
      tile_weight_ + weight + (h - 1) * b * max_bytes > h * b * budget) {
    status_ = FlushTile();
    if (!status_.ok()) {
      return;
    }
  }
  tile_weight_ += weight;
  tile_bytes_ += entry_bytes;
  tile_max_entry_bytes_ = std::max(tile_max_entry_bytes_, entry_bytes);

  PendingEntry pending;
  pending.user_key = entry.user_key.ToString();
  pending.delete_key = entry.delete_key;
  pending.seq = entry.seq;
  pending.type = entry.type;
  pending.value = entry.value.ToString();
  tile_buffer_.push_back(std::move(pending));

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
  props_.largest_key = entry.user_key.ToString();
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

  if (tile_buffer_.size() >= b * h) {
    status_ = FlushTile();
  }
}

void SSTableBuilder::AddRangeTombstone(const RangeTombstone& tombstone) {
  range_tombstones_.push_back(tombstone);
  props_.num_range_tombstones++;
  props_.oldest_range_tombstone_time =
      std::min(props_.oldest_range_tombstone_time, tombstone.time);
}

uint64_t SSTableBuilder::EstimatedSize() const {
  // The buffered tile becomes at least n/B pages by count and at least
  // bytes/budget pages by bytes; with an uncapped B only the byte term sees
  // a KiWi tile of up to h pages. When every page closes by count (B entries
  // always fit the budget) the byte term never exceeds the count term.
  const uint64_t pending_pages =
      std::max<uint64_t>(tile_buffer_.size() / max_entries_per_page_,
                         tile_bytes_ / PageByteBudget(options_));
  return data_bytes_written_ +
         (pending_pages + 1) * options_.page_size_bytes;
}

Status SSTableBuilder::FlushTile() {
  if (tile_buffer_.empty()) {
    return Status::OK();
  }
  // The key weave: order the tile's entries by delete key, then cut into
  // pages of at most B entries (fewer when large values exhaust the page's
  // byte budget first). Consecutive pages thereby partition the tile's
  // delete-key domain. Stable sort keeps the (rare) equal-delete-key
  // entries in sort-key order.
  std::vector<const PendingEntry*> by_delete_key;
  by_delete_key.reserve(tile_buffer_.size());
  for (const PendingEntry& e : tile_buffer_) {
    by_delete_key.push_back(&e);
  }
  std::stable_sort(by_delete_key.begin(), by_delete_key.end(),
                   [](const PendingEntry* a, const PendingEntry* b) {
                     return a->delete_key < b->delete_key;
                   });

  const uint64_t byte_budget = PageByteBudget(options_);
  const uint32_t b = max_entries_per_page_;
  const uint32_t pages_before = props_.num_pages;

  std::vector<const PendingEntry*> page_entries;
  uint64_t page_bytes = 0;
  for (const PendingEntry* e : by_delete_key) {
    ParsedEntry probe;
    probe.user_key = Slice(e->user_key);
    probe.value = Slice(e->value);
    uint64_t entry_bytes = EncodedEntrySize(probe);
    if (entry_bytes > byte_budget) {
      return Status::InvalidArgument(
          "entry larger than a page: raise page_size_bytes");
    }
    if (!page_entries.empty() &&
        (page_entries.size() >= b || page_bytes + entry_bytes > byte_budget)) {
      LETHE_RETURN_IF_ERROR(WritePage(page_entries));
      page_entries.clear();
      page_bytes = 0;
    }
    page_entries.push_back(e);
    page_bytes += entry_bytes;
  }
  if (!page_entries.empty()) {
    LETHE_RETURN_IF_ERROR(WritePage(page_entries));
  }

  props_.num_tiles++;
  tile_page_counts_.push_back(props_.num_pages - pages_before);
  tile_buffer_.clear();
  tile_weight_ = 0;
  tile_bytes_ = 0;
  tile_max_entry_bytes_ = 0;
  return Status::OK();
}

Status SSTableBuilder::WritePage(
    std::vector<const PendingEntry*>& page_entries) {
  // Entries within the page go back to sort-key order so in-page binary
  // search on S works after a single page fetch (§4.2.1 "Page layout").
  std::sort(page_entries.begin(), page_entries.end(),
            [](const PendingEntry* a, const PendingEntry* b) {
              int c = Slice(a->user_key).compare(Slice(b->user_key));
              if (c != 0) {
                return c < 0;
              }
              return a->seq > b->seq;
            });

  PageBuilder page_builder(options_.page_size_bytes, max_entries_per_page_);
  BloomFilterBuilder bloom_builder(options_.bloom_bits_per_key);
  PageMetaRecord meta;
  meta.min_sort_key = page_entries.front()->user_key;
  meta.max_sort_key = page_entries.back()->user_key;

  for (const PendingEntry* e : page_entries) {
    ParsedEntry parsed;
    parsed.user_key = Slice(e->user_key);
    parsed.delete_key = e->delete_key;
    parsed.seq = e->seq;
    parsed.type = e->type;
    parsed.value = Slice(e->value);
    if (!page_builder.Add(parsed)) {
      return Status::InvalidArgument(
          "entry does not fit in page: lower entries_per_page or raise "
          "page_size_bytes");
    }
    bloom_builder.AddKey(parsed.user_key);
    meta.min_delete_key = std::min(meta.min_delete_key, e->delete_key);
    meta.max_delete_key = std::max(meta.max_delete_key, e->delete_key);
    meta.num_entries++;
    if (parsed.IsTombstone()) {
      meta.num_tombstones++;
    }
  }

  std::string page = page_builder.Finish();
  LETHE_RETURN_IF_ERROR(file_->Append(page));
  data_bytes_written_ += page.size();
  meta.bloom = bloom_builder.Finish();
  pages_.push_back(std::move(meta));
  props_.num_pages++;
  return Status::OK();
}

Status SSTableBuilder::Finish(TableProperties* props) {
  LETHE_RETURN_IF_ERROR(status_);
  LETHE_RETURN_IF_ERROR(FlushTile());

  // Filter section: one contiguous filter block per delete tile — the
  // concatenated per-page Bloom filters in page order — so each tile's
  // filters are independently addressable (and independently cacheable /
  // evictable) without touching any other metadata. Tiles are runs of
  // consecutive pages, so the section is simply every page's filter in
  // file order; the per-page lengths below locate the blocks as prefix
  // sums, costing zero bytes over the inline-filter layout.
  std::string filter_section;
  for (const PageMetaRecord& page : pages_) {
    filter_section += page.bloom;
  }

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
  for (const PageMetaRecord& page : pages_) {
    PutLengthPrefixedSlice(&index_block, page.min_sort_key);
    PutLengthPrefixedSlice(&index_block, page.max_sort_key);
    PutFixed64(&index_block, page.min_delete_key);
    PutFixed64(&index_block, page.max_delete_key);
    PutVarint32(&index_block, page.num_entries);
    PutVarint32(&index_block, page.num_tombstones);
    PutVarint32(&index_block, static_cast<uint32_t>(page.bloom.size()));
  }

  // Properties block.
  std::string props_block;
  PutVarint32(&props_block, props_.num_pages);
  PutVarint32(&props_block, props_.num_tiles);
  PutFixed64(&props_block, props_.num_entries);
  PutFixed64(&props_block, props_.num_point_tombstones);
  PutFixed64(&props_block, props_.num_range_tombstones);
  PutLengthPrefixedSlice(&props_block, props_.smallest_key);
  PutLengthPrefixedSlice(&props_block, props_.largest_key);
  PutFixed64(&props_block, props_.min_delete_key);
  PutFixed64(&props_block, props_.max_delete_key);
  PutFixed64(&props_block, props_.smallest_seq);
  PutFixed64(&props_block, props_.largest_seq);
  PutFixed64(&props_block, props_.oldest_point_tombstone_seq);
  PutFixed64(&props_block, props_.oldest_range_tombstone_time);

  const uint64_t filter_offset = data_bytes_written_;
  const uint64_t rt_offset = filter_offset + filter_section.size();
  const uint64_t index_offset = rt_offset + rt_block.size();
  const uint64_t props_offset = index_offset + index_block.size();

  LETHE_RETURN_IF_ERROR(file_->Append(filter_section));
  LETHE_RETURN_IF_ERROR(file_->Append(rt_block));
  LETHE_RETURN_IF_ERROR(file_->Append(index_block));
  LETHE_RETURN_IF_ERROR(file_->Append(props_block));

  // The crc covers the whole contiguous metadata region, filters included;
  // a pinned open verifies it in one pass, and a lazy index load verifies
  // it while deriving per-tile filter digests for its own later loads.
  uint32_t crc = crc32c::Value(filter_section.data(), filter_section.size());
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
