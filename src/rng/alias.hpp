// Walker/Vose alias method — O(1) sampling from an arbitrary discrete
// distribution after O(k) preprocessing.
//
// Substrate for the non-uniform-bins extension (cf. Berenbrink,
// Brinkmann, Friedetzky, Nagel, "Balls into Non-uniform Bins", JPDC'14,
// the paper's reference [6]): heterogeneous server farms where request
// routing is weighted by server capacity.
//
// Layout: one 16-byte Slot per outcome, {p, alias}, so a draw touches
// one cache line instead of two parallel arrays. The slots live in a
// core::Arena the table owns: a table of 2 MiB or more (2^17 outcomes)
// is a huge-page-advised mapping the kernel has already zeroed, so its
// build faults 2 MiB pages and a random draw into it (the Zipf sampler's
// 16 MiB table at n = 2^20) misses the TLB far less often.
//
// fill() draws a batch of balls at once: both words of every ball in
// stream order, the Lemire slot with its `low < k` pre-test, a prefetch
// of each slot, then a branch-free select. A batch in which a lane trips
// the pre-test is replayed, buffered words first, through sample() —
// the fill_bounded pattern — so the output and the engine's final
// position equal repeated sample() for every length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/arena.hpp"
#include "rng/bounded.hpp"

namespace iba::rng {

/// Immutable alias table over weights w_0..w_{k−1}; sample() returns i
/// with probability w_i / Σw in two engine words (plus Lemire
/// rejections).
class AliasTable {
 public:
  /// Balls per fill() batch; shorter tails go through sample().
  static constexpr std::size_t kFillBatch = 64;

  /// Builds the table (Vose's stable two-stack construction). Weights
  /// must be finite and non-negative with a positive, finite sum.
  explicit AliasTable(const std::vector<double>& weights);

  template <std::uniform_random_bit_generator Engine>
  [[nodiscard]] std::uint32_t sample(Engine& engine) const noexcept {
    const auto slot =
        static_cast<std::uint32_t>(bounded(engine, slots_.size()));
    const Slot& s = slots_[slot];
    return uniform01(engine) < s.p ? slot : s.alias;
  }

  /// Fills `out` with draws, consuming the engine stream exactly as
  /// out.size() sequential sample() calls would and emitting the same
  /// values.
  template <std::uniform_random_bit_generator Engine>
  void fill(Engine& engine, std::span<std::uint32_t> out) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Every outcome's probability, derived from the slots: outcome i has
  /// (p_i + Σ_{j≠i, alias_j = i} (1 − p_j)) / k. O(k); for tests.
  [[nodiscard]] std::vector<double> outcome_probabilities() const;

 private:
  struct alignas(16) Slot {
    double p;             ///< keep the slot when uniform01 < p
    std::uint32_t alias;  ///< outcome otherwise; == own index if p = 1
  };

  /// Serves the buffered words of a batch, then the engine's: a rejecting
  /// batch replays through sample() with the stream position intact.
  template <std::uniform_random_bit_generator Engine>
  struct Replay {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() {
      return next < 2 * kFillBatch ? words[next++] : engine();
    }
    const std::uint64_t* words;
    Engine& engine;
    std::size_t next = 0;
  };

  // The arena outlives the slots it holds (members die in reverse); it
  // is neither copyable nor movable, and so neither is the table.
  core::Arena arena_;
  core::ArenaBuffer<Slot> slots_;
};

template <std::uniform_random_bit_generator Engine>
void AliasTable::fill(Engine& engine, std::span<std::uint32_t> out) const
    noexcept {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"  // __int128 is a GCC/Clang builtin
  using u128 = unsigned __int128;
#pragma GCC diagnostic pop
  const std::uint64_t k = slots_.size();
  const Slot* const slots = slots_.data();
  std::uint64_t words[2 * kFillBatch];  // (slot word, coin word) per ball
  std::uint32_t picked[kFillBatch];
  std::size_t i = 0;
  for (; out.size() - i >= kFillBatch; i += kFillBatch) {
    bool may_reject = false;
    for (std::size_t b = 0; b < kFillBatch; ++b) {
      words[2 * b] = engine();
      words[2 * b + 1] = engine();
      const u128 m = static_cast<u128>(words[2 * b]) * k;
      may_reject |= static_cast<std::uint64_t>(m) < k;
      picked[b] = static_cast<std::uint32_t>(m >> 64);
      __builtin_prefetch(slots + picked[b]);
    }
    if (may_reject) [[unlikely]] {
      Replay<Engine> replay{words, engine};
      for (std::size_t b = 0; b < kFillBatch; ++b) {
        out[i + b] = sample(replay);
      }
      continue;
    }
    for (std::size_t b = 0; b < kFillBatch; ++b) {
      const Slot& s = slots[picked[b]];
      // uniform01 of the buffered coin word.
      const double coin =
          static_cast<double>(words[2 * b + 1] >> 11) * 0x1.0p-53;
      const std::uint32_t keep = 0u - static_cast<std::uint32_t>(coin < s.p);
      out[i + b] = (picked[b] & keep) | (s.alias & ~keep);
    }
  }
  for (; i < out.size(); ++i) out[i] = sample(engine);
}

}  // namespace iba::rng
