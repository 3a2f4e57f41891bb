#ifndef LSMSSD_UTIL_CRC32C_H_
#define LSMSSD_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lsmssd {
namespace crc32c {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected as 0x82F63B78).
/// The standard checksum used by production LSM stores for block integrity;
/// detects all single-bit errors and, unlike additive checksums, is not
/// fooled by swapped or misdirected payloads of equal byte sums.
///
/// `Extend` continues a CRC over more data; `Value` starts from zero.
/// Test vector: Value("123456789", 9) == 0xE3069283.
///
/// Extend runs the SSE4.2 crc32 instruction when the CPU has it, chosen
/// once at run time (no build flag needed), and the portable
/// slicing-by-8 table otherwise. Both give identical results.
uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n);

/// The two paths behind Extend, callable directly so tests can compare
/// them. ExtendHardware may only be called when HardwareAvailable(); on
/// builds for CPUs other than x86-64 it is the portable path and
/// HardwareAvailable() is false.
uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n);
uint32_t ExtendHardware(uint32_t crc, const uint8_t* data, size_t n);
bool HardwareAvailable();

inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}

}  // namespace crc32c
}  // namespace lsmssd

#endif  // LSMSSD_UTIL_CRC32C_H_
