#ifndef LETHE_FORMAT_ENTRY_H_
#define LETHE_FORMAT_ENTRY_H_

#include <cstdint>
#include <string>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// Monotonically increasing, insertion-driven sequence number. Mirrors
/// RocksDB's seqnum, which FADE reuses to compute tombstone ages (§4.1.3).
using SequenceNumber = uint64_t;

/// Maximum representable sequence number (56 bits; the low 8 bits of the
/// internal-key trailer hold the ValueType).
constexpr SequenceNumber kMaxSequenceNumber = (1ull << 56) - 1;

/// Entry kinds stored in the tree. Range tombstones are not inline entries;
/// they live in a dedicated per-file block (see range_tombstone.h), matching
/// the RocksDB DeleteRange design described in the paper (§3.1.1).
enum class ValueType : uint8_t {
  kValue = 1,
  kTombstone = 2,  // point delete
};

/// A fully decoded key-value entry: the sort key S, the secondary delete
/// key D (fixed 64-bit, e.g. a timestamp), recency metadata, and the value.
/// Slices point into storage owned by whoever produced the entry.
struct ParsedEntry {
  Slice user_key;            // sort key S
  uint64_t delete_key = 0;   // secondary delete key D
  SequenceNumber seq = 0;
  ValueType type = ValueType::kValue;
  Slice value;

  bool IsTombstone() const { return type == ValueType::kTombstone; }
};

/// Internal-key ordering: sort key ascending, then sequence number
/// descending (more recent first), matching LSM level semantics where the
/// first match during a newest-to-oldest traversal wins.
inline int CompareInternal(const Slice& a_key, SequenceNumber a_seq,
                           const Slice& b_key, SequenceNumber b_seq) {
  int c = a_key.compare(b_key);
  if (c != 0) {
    return c;
  }
  if (a_seq > b_seq) {
    return -1;
  }
  if (a_seq < b_seq) {
    return +1;
  }
  return 0;
}

inline int CompareInternal(const ParsedEntry& a, const ParsedEntry& b) {
  return CompareInternal(a.user_key, a.seq, b.user_key, b.seq);
}

/// Packs (seq, type) into the 8-byte internal-key trailer.
inline uint64_t PackSeqAndType(SequenceNumber seq, ValueType type) {
  return (seq << 8) | static_cast<uint64_t>(type);
}

inline SequenceNumber UnpackSeq(uint64_t packed) { return packed >> 8; }
inline ValueType UnpackType(uint64_t packed) {
  return static_cast<ValueType>(packed & 0xff);
}

/// Serializes an entry as a page stores it:
///   varint32 key_len | key | varint64 (seq<<8 | type) | varint64 delete_key
///   | varint32 value_len | value
/// Appends to *dst.
void EncodeEntry(const ParsedEntry& entry, std::string* dst);

/// Writes the same bytes to dst[0, EncodedEntrySize(entry)), which the
/// caller sized; returns a pointer just past them.
char* EncodeEntry(const ParsedEntry& entry, char* dst);

/// Parses one entry from the front of *input, advancing it. The resulting
/// slices alias *input's storage.
bool DecodeEntry(Slice* input, ParsedEntry* entry);

/// Bytes EncodeEntry would append for this entry.
size_t EncodedEntrySize(const ParsedEntry& entry);

/// The smallest encoded entry: four one-byte varints around an empty key
/// and value (sequence 0). Bounds how many entries a page can hold.
constexpr size_t kMinEncodedEntrySize = 4;

}  // namespace lethe

#endif  // LETHE_FORMAT_ENTRY_H_
