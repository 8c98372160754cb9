#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SPF_CRC32C_HAVE_SSE42 1
#endif

namespace spf {
namespace crc32c {
namespace {

// Table-driven CRC32C with the Castagnoli polynomial (reflected form).
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef SPF_CRC32C_HAVE_SSE42
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC
// as the table, 8 bytes per instruction. Only this function is compiled
// for SSE4.2, so the binary still runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ChooseExtend() {
#ifdef SPF_CRC32C_HAVE_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &internal::ExtendTable;
}

}  // namespace

namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const void* data, size_t n) {
  // Chosen once per process, from CPUID, on the first call.
  static const ExtendFn impl = ChooseExtend();
  return impl(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace spf
