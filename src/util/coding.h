#ifndef LETHE_UTIL_CODING_H_
#define LETHE_UTIL_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/util/slice.h"

namespace lethe {

// Little-endian fixed-width and varint encodings used by the on-disk format
// (pages, WAL records, MANIFEST edits). All encoders append to a std::string;
// all decoders either read from a raw pointer (fixed-width) or consume from a
// Slice and report success (varints, length-prefixed slices).

inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));  // little-endian hosts only
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

/// Decodes a varint32 from the front of `input`, advancing it. Returns false
/// on malformed or truncated input.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);

/// Number of bytes the varint encoding of `value` occupies: one per 7
/// significant bits.
inline int VarintLength(uint64_t value) {
  return (std::bit_width(value | 1) + 6) / 7;
}

// Low-level encoders returning a pointer just past the written bytes.
char* EncodeVarint32(char* dst, uint32_t value);
char* EncodeVarint64(char* dst, uint64_t value);

/// The multi-byte case of GetVarint32Ptr.
const char* GetVarint32PtrFallback(const char* p, const char* limit,
                                   uint32_t* value);

/// Decodes a varint32 from [p, limit). Returns a pointer just past it, or
/// null on malformed or truncated input. A one-byte varint (every value
/// under 128) is decoded inline.
inline const char* GetVarint32Ptr(const char* p, const char* limit,
                                  uint32_t* value) {
  if (p < limit) {
    const uint32_t byte = static_cast<unsigned char>(*p);
    if ((byte & 128) == 0) {
      *value = byte;
      return p + 1;
    }
  }
  return GetVarint32PtrFallback(p, limit, value);
}

/// The multi-byte case of GetVarint64Ptr.
const char* GetVarint64PtrFallback(const char* p, const char* limit,
                                   uint64_t* value);

/// GetVarint32Ptr for a varint64.
inline const char* GetVarint64Ptr(const char* p, const char* limit,
                                  uint64_t* value) {
  if (p < limit) {
    const uint64_t byte = static_cast<unsigned char>(*p);
    if ((byte & 128) == 0) {
      *value = byte;
      return p + 1;
    }
  }
  return GetVarint64PtrFallback(p, limit, value);
}

}  // namespace lethe

#endif  // LETHE_UTIL_CODING_H_
