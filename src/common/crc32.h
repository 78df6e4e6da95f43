// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum used by the
// FXB binary scene container for its header, index, and per-scene
// sections, by the cache's source records and by fixyd's wire frames.
//
// On an x86 host with PCLMULQDQ and SSE4.1 (checked once at run time with
// __builtin_cpu_supports, like the KDE kernels in stats/simd.cc), an input
// of 64 bytes or more is folded 64 bytes per step by carry-less
// multiplication and reduced to 32 bits with a Barrett step (Intel's
// folding constants for the reflected polynomial, as zlib uses them):
// about 6 GB/s on one core. Everything else, and the under-16-byte tail,
// runs slicing-by-8 over compile-time tables (about 1.5 GB/s). Both give
// the same bits on every platform; Crc32Test holds both to a
// byte-at-a-time reference.
#ifndef FIXY_COMMON_CRC32_H_
#define FIXY_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fixy {

/// CRC-32 of `size` bytes starting at `data`. Crc32(nullptr, 0) == 0.
uint32_t Crc32(const void* data, size_t size);

inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// The slicing-by-8 form alone: what Crc32 computes on a host without
/// PCLMULQDQ. Crc32 is the one to call; this is public so a test can hold
/// the fallback to the reference on a host that never runs it.
uint32_t Crc32Sliced(const void* data, size_t size);

}  // namespace fixy

#endif  // FIXY_COMMON_CRC32_H_
