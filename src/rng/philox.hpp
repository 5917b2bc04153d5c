// Philox4x32-10 — Salmon et al.'s counter-based generator ("Parallel random
// numbers: as easy as 1, 2, 3", SC'11).
//
// A counter-based engine produces random output as a pure function of
// (key, counter); any stream position is addressable in O(1), so a
// stream keyed by a task's index is independent of scheduling and thread
// count.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace iba::rng {

/// Philox4x32 with 10 rounds (the authors' recommended Crush-resistant
/// configuration). Exposes both the raw block function and a
/// std::uniform_random_bit_generator interface emitting 64-bit words.
class Philox4x32 {
 public:
  using result_type = std::uint64_t;
  using block_type = std::array<std::uint32_t, 4>;
  using key_type = std::array<std::uint32_t, 2>;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Constructs a stream identified by a 64-bit key (stream id).
  explicit constexpr Philox4x32(std::uint64_t key) noexcept
      : key_{static_cast<std::uint32_t>(key),
             static_cast<std::uint32_t>(key >> 32)},
        counter_{0, 0, 0, 0},
        buffer_{},
        buffered_(0) {}

  /// The pure block function: encrypts `counter` under `key` (10 rounds).
  [[nodiscard]] static constexpr block_type block(block_type counter,
                                                  key_type key) noexcept {
    for (int round = 0; round < 10; ++round) {
      counter = single_round(counter, key);
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    return counter;
  }

  /// Sequential interface: emits the 128-bit blocks of this stream as
  /// pairs of 64-bit words.
  constexpr result_type operator()() noexcept {
    if (buffered_ == 0) {
      const block_type out = block(counter_, key_);
      increment_counter();
      buffer_[0] = (static_cast<std::uint64_t>(out[1]) << 32) | out[0];
      buffer_[1] = (static_cast<std::uint64_t>(out[3]) << 32) | out[2];
      buffered_ = 2;
    }
    return buffer_[--buffered_];
  }

  /// Repositions the stream at 128-bit block `index` (O(1) seek).
  constexpr void seek(std::uint64_t block_index) noexcept {
    counter_ = {static_cast<std::uint32_t>(block_index),
                static_cast<std::uint32_t>(block_index >> 32), 0, 0};
    buffered_ = 0;
  }

  [[nodiscard]] constexpr key_type key() const noexcept { return key_; }

 private:
  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

  [[nodiscard]] static constexpr block_type single_round(
      const block_type& ctr, const key_type& key) noexcept {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * ctr[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * ctr[2];
    return {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
            static_cast<std::uint32_t>(p1),
            static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
            static_cast<std::uint32_t>(p0)};
  }

  constexpr void increment_counter() noexcept {
    for (auto& word : counter_) {
      if (++word != 0) break;  // carry into the next word on wrap
    }
  }

  key_type key_;
  block_type counter_;
  std::array<std::uint64_t, 2> buffer_;
  int buffered_;
};

}  // namespace iba::rng
