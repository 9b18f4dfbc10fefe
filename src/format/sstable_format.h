#ifndef LETHE_FORMAT_SSTABLE_FORMAT_H_
#define LETHE_FORMAT_SSTABLE_FORMAT_H_

#include <cstdint>

namespace lethe {

// Shared constants of the SSTable footer, used by builder and reader.
//
// File layout:
//   [data pages][filter section][rt block][index block][props block][footer]
//
// The filter section holds every page's Bloom filter, concatenated in page
// order (so each delete tile's filters are contiguous). The index block's
// per-page records carry each filter's length; offsets are prefix sums on
// the read side, so moving the filter bytes out of the index costs zero
// extra file bytes. Readers fetch [filter section .. props block] in a
// single contiguous read, preserving the one-metadata-read open (and the
// exact file sizes) of the inline-filter format.
//
// Footer layout (fixed kFooterSize bytes at the very end of the file):
//   fixed64 index_offset  | fixed32 index_len
//   fixed64 filter_offset | fixed32 rt_len
//   fixed64 props_offset  | fixed32 props_len
//   fixed32 meta_crc (crc32c over filter+rt+index+props, masked)
//   fixed64 magic
// The rt block's offset is derivable (index_offset - rt_len; the blocks are
// contiguous), which frees its fixed64 slot for the filter section's offset
// — the footer stays the classic 48 bytes.
//
// The magic also names the page layout (page.h: keys stored after the
// page's common prefix, entries in entry.h's varint layout): a table
// written with another page layout fails to open as Corruption instead of
// being decoded wrongly.
constexpr uint64_t kTableMagic = 0x4c65746865544250ull;  // "LetheTBP"
constexpr size_t kFooterSize = 8 + 4 + 8 + 4 + 8 + 4 + 4 + 8;

}  // namespace lethe

#endif  // LETHE_FORMAT_SSTABLE_FORMAT_H_
