// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
// buffers — used by the sealed-file envelopes (io/sealed.hpp) to make
// on-disk corruption (bit flips, truncation, trailing garbage)
// detectable before any field is parsed, and by the wire frames.
// Table-driven, one 1 KiB table built on first use.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace iba::common {

namespace detail {

inline const std::array<std::uint32_t, 256>& crc32_table() noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace detail

/// CRC-32 of `data`, with the conventional init/final inversion (matches
/// zlib's crc32() and POSIX cksum tooling that uses the reflected poly).
[[nodiscard]] inline std::uint32_t crc32(std::string_view data) noexcept {
  const auto& table = detail::crc32_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    const auto byte = static_cast<std::uint8_t>(ch);
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// `crc` as 8 lowercase hex digits — the rendering of scenario digests,
/// engine fingerprints and trailer envelopes.
[[nodiscard]] inline std::string crc32_hex(std::uint32_t crc) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", static_cast<unsigned>(crc));
  return std::string(hex, 8);
}

}  // namespace iba::common
