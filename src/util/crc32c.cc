#include "src/util/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lsmssd {
namespace crc32c {
namespace {

// Slicing-by-8 lookup tables for the Castagnoli polynomial, built once at
// static-init time. Table[0] is the classic byte-at-a-time table; tables
// 1..7 fold eight input bytes per iteration.
struct Tables {
  uint32_t t[8][256];

  Tables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int j = 1; j < 8; ++j) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[j][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n) {
  crc = ~crc;
  const Tables& tb = tables();
  while (n >= 8) {
    uint32_t lo = Load32(data) ^ crc;
    uint32_t hi = Load32(data + 4);
    crc = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
          tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xFF] ^ tb.t[2][(hi >> 8) & 0xFF] ^
          tb.t[1][(hi >> 16) & 0xFF] ^ tb.t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = tb.t[0][(crc ^ *data++) & 0xFF] ^ (crc >> 8);
    --n;
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 whatever the build's -m flags; only ever called
// after HardwareAvailable() said the CPU has the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const uint8_t* data,
                                                          size_t n) {
  crc = ~crc;
  // 8 bytes per instruction; x86 loads need no alignment.
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = static_cast<uint32_t>(_mm_crc32_u64(crc, word));
    data += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *data++);
    --n;
  }
  return ~crc;
}

bool HardwareAvailable() {
  __builtin_cpu_init();  // May run before the CPU-model constructor.
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t ExtendHardware(uint32_t crc, const uint8_t* data, size_t n) {
  return ExtendPortable(crc, data, n);
}

bool HardwareAvailable() { return false; }

#endif

uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n) {
  static const bool kHardware = HardwareAvailable();
  return kHardware ? ExtendHardware(crc, data, n)
                   : ExtendPortable(crc, data, n);
}

}  // namespace crc32c
}  // namespace lsmssd
