// common::crc32 is slicing-by-8 with a bytewise tail; these cases pin it
// to the plain bytewise CRC-32 at every length and alignment that
// exercises the 8-byte step, the tail and their seam, and check that
// crc32_update streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.hpp"

namespace iba::common {
namespace {

/// The bitwise definition: reflected polynomial 0xEDB88320, init and
/// final inversion. No tables.
std::uint32_t reference_crc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

/// 264 bytes with every byte value and no period of 8.
std::string pattern() {
  std::string bytes(264, '\0');
  std::uint32_t x = 0x12345678u;
  for (char& byte : bytes) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  const std::string bytes = pattern();
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 256; ++length) {
      const std::string_view data(bytes.data() + offset, length);
      ASSERT_EQ(crc32(data), reference_crc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, ChainedUpdatesEqualTheOneShotCrc) {
  const std::string bytes = pattern();
  const std::string_view all(bytes);
  const std::uint32_t whole = crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(crc32_update(crc32(all.substr(0, split)), all.substr(split)),
              whole)
        << "split at " << split;
  }
  // Three pieces, through the pointer form.
  std::uint32_t crc = 0;
  crc = crc32_update(crc, bytes.data(), 5);
  crc = crc32_update(crc, bytes.data() + 5, 100);
  crc = crc32_update(crc, bytes.data() + 105, bytes.size() - 105);
  EXPECT_EQ(crc, whole);
}

}  // namespace
}  // namespace iba::common
