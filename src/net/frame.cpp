#include "net/frame.hpp"

#include <array>
#include <cstring>
#include <string_view>

#include "common/crc32.hpp"

namespace iba::net {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t value) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t get_u32(const std::uint8_t* in) noexcept {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

/// CRC-32 over type ‖ length ‖ payload (the bytes after the magic).
std::uint32_t frame_crc(std::uint32_t type, std::uint32_t length,
                        std::span<const std::uint8_t> payload) noexcept {
  std::array<std::uint8_t, 8> head;
  put_u32(head.data(), type);
  put_u32(head.data() + 4, length);
  return common::crc32_update(
      common::crc32_update(0, head.data(), head.size()), payload.data(),
      payload.size());
}

}  // namespace

void write_frame(int fd, std::uint32_t type,
                 std::span<const std::uint8_t> payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::array<std::uint8_t, kFrameHeaderBytes> header;
  put_u32(header.data(), kFrameMagic);
  put_u32(header.data() + 4, type);
  put_u32(header.data() + 8, length);
  put_u32(header.data() + 12, frame_crc(type, length, payload));
  write_full(fd, header.data(), header.size());
  if (!payload.empty()) write_full(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::uint32_t& type,
                std::vector<std::uint8_t>& payload,
                std::uint32_t max_payload) {
  std::array<std::uint8_t, kFrameHeaderBytes> header;
  if (!read_full_or_eof(fd, header.data(), header.size())) return false;
  const std::uint32_t magic = get_u32(header.data());
  if (magic != kFrameMagic) {
    throw FrameError("frame: bad magic 0x" + [magic] {
      char buf[9];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }());
  }
  type = get_u32(header.data() + 4);
  const std::uint32_t length = get_u32(header.data() + 8);
  const std::uint32_t crc = get_u32(header.data() + 12);
  if (length > max_payload) {
    throw FrameError("frame: payload length " + std::to_string(length) +
                     " exceeds ceiling " + std::to_string(max_payload));
  }
  payload.resize(length);
  if (length > 0) read_full(fd, payload.data(), length);
  if (frame_crc(type, length, payload) != crc) {
    throw FrameError("frame: CRC mismatch on type " + std::to_string(type) +
                     " (" + std::to_string(length) + " bytes)");
  }
  return true;
}

}  // namespace iba::net
