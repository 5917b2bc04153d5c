// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
// buffers — used by the sealed-file envelopes (io/sealed.hpp) to make
// on-disk corruption (bit flips, truncation, trailing garbage)
// detectable before any field is parsed, and by the wire frames.
//
// Slicing-by-8: eight 1 KiB tables, built at compile time, fold eight
// input bytes per step (Intel's "slicing-by-8", Kounavis & Berry 2005),
// with a bytewise tail. crc32_update streams: a buffer split anywhere
// gives the CRC of the whole, so a message kept in pieces (a frame's
// header and payload, a checkpoint's sections) is never copied to be
// checked.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace iba::common {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][i] is the CRC of byte i
/// followed by k zero bytes, so one step folds eight bytes at once.
constexpr Crc32Tables make_crc32_tables() noexcept {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian load, whatever the host's byte order.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Continues `crc` — a finished CRC-32, 0 for the empty prefix — over
/// `size` more bytes: crc32_update(crc32(a), b) == crc32(a ‖ b).
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                const void* data,
                                                std::size_t size) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

[[nodiscard]] inline std::uint32_t crc32_update(
    std::uint32_t crc, std::string_view data) noexcept {
  return crc32_update(crc, data.data(), data.size());
}

/// CRC-32 of `data`, with the conventional init/final inversion (matches
/// zlib's crc32() and POSIX cksum tooling that uses the reflected poly).
[[nodiscard]] inline std::uint32_t crc32(std::string_view data) noexcept {
  return crc32_update(0, data);
}

/// `crc` as 8 lowercase hex digits — the rendering of scenario digests,
/// engine fingerprints and trailer envelopes.
[[nodiscard]] inline std::string crc32_hex(std::uint32_t crc) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", static_cast<unsigned>(crc));
  return std::string(hex, 8);
}

}  // namespace iba::common
