#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lethe {
namespace crc32c {

namespace {

// Table-driven software CRC32C (Castagnoli, reflected polynomial 0x82f63b78).
// The table is built once at first use; thread-safe via function-local static
// initialization.
struct CrcTable {
  std::array<uint32_t, 256> t;
  CrcTable() {
    const uint32_t poly = 0x82f63b78u;
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      }
      t[i] = crc;
    }
  }
};

const CrcTable& Table() {
  static const CrcTable& table = *new CrcTable();
  return table;
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes the same reflected Castagnoli CRC,
// 8 bytes per step. Compiled for SSE4.2 here only, so the rest of the
// binary still runs on any x86-64; Extend calls this only once the CPU
// check passed.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                        const char* data,
                                                        size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc32 = init_crc ^ 0xffffffffu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    n--;
  }
  uint64_t crc64 = crc32;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc32 = static_cast<uint32_t>(crc64);
  for (; n > 0; n--) {
    crc32 = _mm_crc32_u8(crc32, *p++);
  }
  return crc32 ^ 0xffffffffu;
}
#endif

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const CrcTable& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = table.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

bool HardwareAccelerated() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (HardwareAccelerated()) {
    return ExtendSse42(init_crc, data, n);
  }
#endif
  return ExtendPortable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace lethe
