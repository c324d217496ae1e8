#ifndef KGFD_UTIL_CRC32_H_
#define KGFD_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace kgfd {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum used by zlib
/// and PNG. Model checkpoints and every framed file (util/framed_log.h)
/// store a 4-byte little-endian CRC of their payloads so loaders can
/// reject truncated or bit-flipped files with a clear error instead of
/// parsing garbage.

/// Incremental update: feed `crc = 0` for the first chunk, then thread the
/// returned value through subsequent chunks.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// One-shot CRC of a buffer.
inline uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

inline uint32_t Crc32(const std::string& data) {
  return Crc32(data.data(), data.size());
}

}  // namespace kgfd

#endif  // KGFD_UTIL_CRC32_H_
