// CRC32C (Castagnoli) checksum, used as the in-page parity check that
// detects most single-page failures on read (paper section 4.2).

#pragma once

#include <cstddef>
#include <cstdint>

namespace spf {
namespace crc32c {

/// Computes the CRC32C of `data[0, n)` extending `init_crc`. Uses the
/// SSE4.2 crc32 instruction when the CPU has it, else a byte-at-a-time
/// table; both give the same value.
uint32_t Extend(uint32_t init_crc, const void* data, size_t n);

/// Computes the CRC32C of `data[0, n)`.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

/// Masks a CRC so that a CRC stored alongside the data it covers does not
/// produce a degenerate all-zero fixed point (RocksDB/LevelDB idiom).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

namespace internal {
/// The portable table path of Extend(): the fallback on CPUs without
/// SSE4.2 and the reference the tests compare the hardware path against.
uint32_t ExtendTable(uint32_t init_crc, const void* data, size_t n);
}  // namespace internal

}  // namespace crc32c
}  // namespace spf
