// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
// buffers — integrity check for persistent preprocessing artifacts
// (plan files). Table-driven software implementation, slicing-by-8:
// eight 256-entry tables fold one 8-byte word per step, and the tail
// runs the classic one-table byte loop, so every digest equals the
// byte-wise CRC's. The tables are built once at first use.
// Incremental interface so framed sections can be folded into one
// digest without a contiguous copy.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace fbmpk {

// The 8-byte step XORs the running state into the word's low four
// bytes, which is only the byte stream's order on little-endian hosts.
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 CRC32 assumes a little-endian host");

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the byte-wise table; t[j][i] is the CRC of byte i followed
/// by j zero bytes, so eight lookups fold eight bytes at once.
inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[0][i] = c;
    }
    for (std::size_t j = 1; j < 8; ++j)
      for (std::size_t i = 0; i < 256; ++i)
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    return t;
  }();
  return tables;
}

}  // namespace detail

/// Fold `size` bytes into a running CRC32 state. Start from
/// `kCrc32Init`; finish with `crc32_finish`.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

inline std::uint32_t crc32_update(std::uint32_t state, const void* data,
                                  std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = detail::crc32_tables();
  for (; size >= 8; p += 8, size -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= state;
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size)
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  return state;
}

inline std::uint32_t crc32_finish(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC32 of a buffer.
inline std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_finish(crc32_update(kCrc32Init, data, size));
}

}  // namespace fbmpk
