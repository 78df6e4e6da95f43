#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FIXY_CRC32_CLMUL 1
#else
#define FIXY_CRC32_CLMUL 0
#endif

namespace fixy {

namespace {

using Table = std::array<uint32_t, 256>;

// kTables[0] is the classic byte-at-a-time table. kTables[k][b] is the
// CRC register after byte b is followed by k zero bytes, so one 8-byte
// step XORs eight lookups that each advance their byte to the end of the
// word (slicing-by-8).
constexpr std::array<Table, 8> BuildTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = BuildTables();

// Little-endian load whatever the host order, so the CRC bits do not
// depend on the platform (GCC and Clang compile it to one load on x86).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Advances the CRC register `crc` (pre- and post-inversion are the
// callers') over `size` bytes: eight per step, then one at a time.
uint32_t SlicedUpdate(uint32_t crc, const unsigned char* bytes, size_t size) {
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if FIXY_CRC32_CLMUL

#define FIXY_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))

FIXY_TARGET_CLMUL inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One folding step: carries the 128-bit remainder `x` forward by the
// distance the constant pair `k` encodes and adds the block there.
FIXY_TARGET_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i block) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), block);
}

// Advances the CRC register `crc` over `size` bytes, a multiple of 16 and
// at least 64, by carry-less multiplication ("Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Gopal et al., Intel
// 2009). The constants are x^n mod P for the bit-reflected P, the values
// that paper, zlib and the Linux kernel use: k1/k2 fold a lane 512 bits
// ahead, k3/k4 128 bits, k5 reduces 96 bits to 64, and P with its Barrett
// quotient mu reduces 64 bits to the 32-bit register.
FIXY_TARGET_CLMUL uint32_t ClmulUpdate(uint32_t crc,
                                       const unsigned char* bytes,
                                       size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four independent lanes, 64 bytes per step.
  __m128i x1 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  for (bytes += 64, size -= 64; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load128(bytes));
    x2 = Fold(x2, k1k2, Load128(bytes + 16));
    x3 = Fold(x3, k1k2, Load128(bytes + 32));
    x4 = Fold(x4, k1k2, Load128(bytes + 48));
  }

  // The lanes into one, then the remaining 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold(x1, k3k4, Load128(bytes));
  }

  // 128 bits to 64, then 64 to 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool ClmulAvailable() {
  static const bool available =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return available;
}

#endif  // FIXY_CRC32_CLMUL

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#if FIXY_CRC32_CLMUL
  if (size >= 64 && ClmulAvailable()) {
    const size_t folded = size & ~size_t{15};
    crc = ClmulUpdate(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return SlicedUpdate(crc, bytes, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Sliced(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  return SlicedUpdate(0xFFFFFFFFu, bytes, size) ^ 0xFFFFFFFFu;
}

}  // namespace fixy
