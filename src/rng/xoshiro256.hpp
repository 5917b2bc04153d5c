// xoshiro256++ / xoshiro256** — Blackman & Vigna's general-purpose 64-bit
// generators (256-bit state, period 2^256 − 1, jump-ahead support).
//
// xoshiro256++ is the default engine for all iba simulations: it is fast
// (sub-ns per draw), passes BigCrush/PractRand, and supports 2^128-step
// jumps for carving out provably disjoint parallel substreams.
// Reference: http://prng.di.unimi.it (public domain reference code).
//
// The state update is linear over GF(2), so advancing by k steps is
// multiplying by T^k, and T^k = (x^k mod p)(T) for the engine's
// degree-256 characteristic polynomial p (Cayley–Hamilton). jump() and
// long_jump() apply the reference code's precomputed x^(2^128) and
// x^(2^192) mod p; discard(k) applies x^(2^i) mod p for each set bit i
// of k (a table built by squaring), so any shard can start exactly k
// draws into a stream in a few µs.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "rng/splitmix64.hpp"

namespace iba::rng {

namespace detail {

/// A polynomial over GF(2) of degree below 256, coefficient of x^i at bit
/// i % 64 of word i / 64.
using Gf2Poly = std::array<std::uint64_t, 4>;

/// The characteristic polynomial of the xoshiro256 state update, minus
/// its leading x^256 term (found by Berlekamp–Massey on one state bit;
/// the unit tests re-derive jump()'s and long_jump()'s polynomials
/// from it).
inline constexpr Gf2Poly kXoshiroCharPoly = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

/// a · x mod p.
inline Gf2Poly times_x_mod(const Gf2Poly& a) noexcept {
  // x^256 ≡ kXoshiroCharPoly (mod p) over GF(2).
  const std::uint64_t carry = 0 - (a[3] >> 63);
  Gf2Poly r{};
  r[3] = ((a[3] << 1) | (a[2] >> 63)) ^ (carry & kXoshiroCharPoly[3]);
  r[2] = ((a[2] << 1) | (a[1] >> 63)) ^ (carry & kXoshiroCharPoly[2]);
  r[1] = ((a[1] << 1) | (a[0] >> 63)) ^ (carry & kXoshiroCharPoly[1]);
  r[0] = (a[0] << 1) ^ (carry & kXoshiroCharPoly[0]);
  return r;
}

/// a · b mod p, Horner over b's bits from the top.
inline Gf2Poly mul_mod(const Gf2Poly& a, const Gf2Poly& b) noexcept {
  Gf2Poly acc{};
  for (int i = 255; i >= 0; --i) {
    acc = times_x_mod(acc);
    const std::uint64_t take =
        0 - ((b[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1);
    for (std::size_t w = 0; w < 4; ++w) acc[w] ^= a[w] & take;
  }
  return acc;
}

/// x^(2^i) mod p for i < 64: the polynomials of 2^i-step jumps. Built
/// by squaring on first use (~0.1 ms; at compile time it would cost
/// every including file seconds).
inline const std::array<Gf2Poly, 64>& power_of_two_jumps() {
  static const std::array<Gf2Poly, 64> table = [] {
    std::array<Gf2Poly, 64> powers{};
    Gf2Poly power = {2, 0, 0, 0};  // x
    for (Gf2Poly& entry : powers) {
      entry = power;
      power = mul_mod(power, power);
    }
    return powers;
  }();
  return table;
}

/// Common machinery of the xoshiro256 family: state layout, seeding,
/// linear-engine jumps. The output scrambler is supplied by the subclass.
class Xoshiro256Base {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Seeds the 256-bit state by expanding `seed` through SplitMix64, as
  /// recommended by the authors (avoids correlated low-entropy states).
  explicit constexpr Xoshiro256Base(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm();
  }

  explicit constexpr Xoshiro256Base(
      const std::array<std::uint64_t, 4>& state) noexcept
      : s_(state) {}

  /// x^(2^128) mod p and x^(2^192) mod p, from the reference code.
  static constexpr Gf2Poly kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  static constexpr Gf2Poly kLongJump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};

  /// Advances the state by 2^128 steps. 2^128 generators seeded by
  /// successive jumps never overlap for any realistic draw count.
  constexpr void jump() noexcept { apply_jump_polynomial(kJump); }

  /// Advances the state by 2^192 steps (for hierarchical stream splitting).
  constexpr void long_jump() noexcept { apply_jump_polynomial(kLongJump); }

  /// Advances the state by exactly k steps: the state k calls of
  /// operator() would leave. x^k mod p is the product of x^(2^i) mod p
  /// over k's set bits, applied factor by factor: k mod 256 single steps,
  /// then one 256-step jump per set bit above bit 7 (a few µs at most).
  void discard(std::uint64_t k) {
    for (std::uint64_t i = k & 255; i > 0; --i) (void)step_linear();
    if (k < 256) return;
    const std::array<Gf2Poly, 64>& jumps = power_of_two_jumps();
    for (std::size_t bit = 8; bit < 64; ++bit) {
      if ((k >> bit) & 1) apply_jump_polynomial(jumps[bit]);
    }
  }

  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state()
      const noexcept {
    return s_;
  }

  friend constexpr bool operator==(const Xoshiro256Base& a,
                                   const Xoshiro256Base& b) noexcept {
    return a.s_ == b.s_;
  }

 protected:
  constexpr std::uint64_t step_linear() noexcept {
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return s_[0];
  }

  std::array<std::uint64_t, 4> s_;

 private:
  constexpr void apply_jump_polynomial(const Gf2Poly& poly) noexcept {
    std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
    for (std::uint64_t word : poly) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= s_[static_cast<std::size_t>(i)];
        }
        (void)step_linear();
      }
    }
    s_ = acc;
  }
};

}  // namespace detail

/// xoshiro256++: rotl(s0 + s3, 23) + s0 output scrambler. The recommended
/// all-purpose generator; iba's default simulation engine.
class Xoshiro256pp final : public detail::Xoshiro256Base {
 public:
  using detail::Xoshiro256Base::Xoshiro256Base;

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    (void)step_linear();
    return result;
  }
};

/// xoshiro256**: rotl(s1 * 5, 7) * 9 output scrambler. Offered as an
/// alternative with a multiplicative scrambler.
class Xoshiro256ss final : public detail::Xoshiro256Base {
 public:
  using detail::Xoshiro256Base::Xoshiro256Base;

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    (void)step_linear();
    return result;
  }
};

}  // namespace iba::rng
