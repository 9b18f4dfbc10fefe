#ifndef LETHE_UTIL_CRC32C_H_
#define LETHE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lethe {
namespace crc32c {

/// Returns the CRC32C (Castagnoli polynomial) of data[0, n-1], continuing
/// from `init_crc` (the CRC of a preceding byte stretch, or 0). Uses the
/// CPU's crc32 instruction when HardwareAccelerated(), the table loop of
/// ExtendPortable otherwise; both give the same bits.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The one-byte-at-a-time table loop: Extend's path on CPUs without a CRC
/// instruction, and the reference its hardware path is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the CPU's crc32 instruction (x86-64 with
/// SSE4.2). Checked once per process.
bool HardwareAccelerated();

/// CRC32C of data[0, n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Checksums stored on disk are masked so that computing the CRC of a string
// that already embeds its own CRC does not degenerate (same scheme as
// LevelDB/RocksDB log formats).
static const uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace lethe

#endif  // LETHE_UTIL_CRC32C_H_
