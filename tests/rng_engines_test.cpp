// Unit tests for the PRNG engines: known-answer vectors, determinism,
// jump-ahead disjointness, bounded-draw exactness and uniformity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "rng/bounded.hpp"
#include "rng/philox.hpp"
#include "rng/seed.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace {

using namespace iba::rng;

TEST(SplitMix64, KnownAnswerSeedZero) {
  // First outputs of splitmix64 for seed 0, per Vigna's reference code.
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, HashMatchesFirstOutput) {
  for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    SplitMix64 sm(seed);
    EXPECT_EQ(splitmix64_hash(seed), sm());
  }
}

TEST(SplitMix64, DistinctSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256pp, Deterministic) {
  Xoshiro256pp a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256pp, EqualityTracksState) {
  Xoshiro256pp a(7), b(7);
  EXPECT_EQ(a, b);
  (void)a();
  EXPECT_FALSE(a == b);
  (void)b();
  EXPECT_EQ(a, b);
}

TEST(Xoshiro256pp, JumpProducesDisjointStream) {
  Xoshiro256pp base(99);
  Xoshiro256pp jumped = base;
  jumped.jump();
  EXPECT_FALSE(base == jumped);

  std::unordered_set<std::uint64_t> head;
  for (int i = 0; i < 4096; ++i) head.insert(base());
  int collisions = 0;
  for (int i = 0; i < 4096; ++i) collisions += head.count(jumped());
  // 64-bit outputs: any overlap of two 4k windows is astronomically unlikely
  // unless the streams coincide.
  EXPECT_EQ(collisions, 0);
}

TEST(Xoshiro256pp, LongJumpDistinctFromJump) {
  Xoshiro256pp a(5), b(5);
  a.jump();
  b.long_jump();
  EXPECT_FALSE(a == b);
}

// discard(k) steps k mod 256 times and applies a 2^i-step jump per set
// bit above bit 7; together they must leave exactly the state of k draws.
TEST(Xoshiro256pp, DiscardEqualsRepeatedDraws) {
  for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{256}, std::uint64_t{257},
                                std::uint64_t{4095}, std::uint64_t{4096},
                                (std::uint64_t{1} << 20) + 7}) {
    Xoshiro256pp jumped(77), drawn(77);
    Xoshiro256ss jumped_ss(78), drawn_ss(78);
    jumped.discard(k);
    jumped_ss.discard(k);
    for (std::uint64_t i = 0; i < k; ++i) {
      (void)drawn();
      (void)drawn_ss();
    }
    EXPECT_EQ(jumped, drawn) << "k = " << k;
    EXPECT_EQ(jumped_ss, drawn_ss) << "k = " << k;
    EXPECT_EQ(jumped(), drawn()) << "k = " << k;
  }
}

TEST(Xoshiro256pp, DiscardComposes) {
  const std::uint64_t a = (std::uint64_t{1} << 39) + 12345;
  const std::uint64_t b = (std::uint64_t{1} << 39) - 999;
  Xoshiro256pp twice(3), once(3), off_by_one(3);
  twice.discard(a);
  twice.discard(b);
  once.discard(a + b);
  off_by_one.discard(a + b + 1);
  EXPECT_EQ(twice, once);
  EXPECT_FALSE(twice == off_by_one);
  (void)once();
  EXPECT_EQ(once, off_by_one);
}

// The reference code's jump polynomials are x^(2^128) and x^(2^192)
// modulo the characteristic polynomial discard() uses.
TEST(Xoshiro256pp, JumpPolynomialsArePowersOfX) {
  using iba::rng::detail::Gf2Poly;
  using iba::rng::detail::Xoshiro256Base;
  Gf2Poly power = {2, 0, 0, 0};  // x
  for (int i = 0; i < 128; ++i) {
    power = iba::rng::detail::mul_mod(power, power);
  }
  EXPECT_EQ(power, Xoshiro256Base::kJump);
  for (int i = 0; i < 64; ++i) {
    power = iba::rng::detail::mul_mod(power, power);
  }
  EXPECT_EQ(power, Xoshiro256Base::kLongJump);
  // The 2^i-step table: x, then each entry the square of the last, so
  // entry 8 is the 256-step jump.
  const auto& table = iba::rng::detail::power_of_two_jumps();
  EXPECT_EQ(table[0], (Gf2Poly{2, 0, 0, 0}));
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_EQ(table[i], iba::rng::detail::mul_mod(table[i - 1], table[i - 1]))
        << "i = " << i;
  }
}

// Berlekamp–Massey over GF(2) on one state bit recovers the engine's
// minimal polynomial, which for this full-period engine is the degree-256
// characteristic polynomial.
TEST(Xoshiro256pp, CharacteristicPolynomialMatchesBerlekampMassey) {
  constexpr std::size_t kBits = 512;
  Xoshiro256pp engine(2024);
  std::vector<int> bits(kBits);
  for (std::size_t t = 0; t < kBits; ++t) {
    bits[t] = static_cast<int>(engine.state()[0] & 1);
    (void)engine();
  }
  std::vector<int> conn(kBits + 1, 0), prev(kBits + 1, 0);
  conn[0] = prev[0] = 1;
  std::size_t length = 0, shift = 1;
  for (std::size_t t = 0; t < kBits; ++t) {
    int discrepancy = bits[t];
    for (std::size_t i = 1; i <= length; ++i) {
      discrepancy ^= conn[i] & bits[t - i];
    }
    if (discrepancy == 0) {
      ++shift;
      continue;
    }
    const std::vector<int> saved = conn;
    for (std::size_t i = 0; i + shift <= kBits; ++i) conn[i + shift] ^= prev[i];
    if (2 * length <= t) {
      length = t + 1 - length;
      prev = saved;
      shift = 1;
    } else {
      ++shift;
    }
  }
  ASSERT_EQ(length, 256u);
  // The characteristic polynomial is the connection polynomial reversed.
  iba::rng::detail::Gf2Poly reversed{};
  for (std::size_t j = 0; j < 256; ++j) {
    if (conn[256 - j] != 0) reversed[j / 64] |= std::uint64_t{1} << (j % 64);
  }
  EXPECT_EQ(conn[0], 1);
  EXPECT_EQ(reversed, iba::rng::detail::kXoshiroCharPoly);
}

TEST(Xoshiro256ss, DeterministicAndDistinctFromPp) {
  Xoshiro256ss a(12345), b(12345);
  Xoshiro256pp c(12345);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    if (x != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Xoshiro256pp, Uniform01MeanAndRange) {
  Xoshiro256pp eng(2024);
  double sum = 0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = uniform01(eng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(Philox4x32, KnownAnswerZeros) {
  // Random123 known-answer test: philox4x32-10, counter = 0, key = 0.
  const auto out = Philox4x32::block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox4x32, SeekIsRandomAccess) {
  Philox4x32 seq(42);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 64; ++i) first.push_back(seq());

  Philox4x32 seeked(42);
  seeked.seek(10);  // block 10 covers sequential outputs 20, 21
  EXPECT_EQ(seeked(), first[20]);
  EXPECT_EQ(seeked(), first[21]);
}

TEST(Philox4x32, DistinctKeysDistinctStreams) {
  Philox4x32 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Bounded, RangeOneAlwaysZero) {
  Xoshiro256pp eng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bounded(eng, 1), 0u);
}

TEST(Bounded, StaysInRange) {
  Xoshiro256pp eng(3);
  for (std::uint64_t range : {2ULL, 3ULL, 7ULL, 1000ULL, (1ULL << 40) + 9}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(bounded(eng, range), range);
  }
}

TEST(Bounded, ChiSquareUniformOverSmallRange) {
  // 7 buckets, 700k draws: chi-square with 6 dof; 33.1 is far beyond the
  // 99.999th percentile, so a correct implementation fails ~never.
  Xoshiro256pp eng(77);
  constexpr std::uint64_t kRange = 7;
  constexpr int kDraws = 700000;
  std::array<int, kRange> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[bounded(eng, kRange)];
  const double expected = static_cast<double>(kDraws) / kRange;
  double chi2 = 0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 33.1);
}

TEST(FillBounded, MatchesSequentialBounded32Exactly) {
  // The batched fill must consume the engine word-for-word like the
  // sequential loop — the simulator's determinism contract depends on
  // the two producing the same stream, including across the rare
  // rejection-resampling path (small ranges near 2^32 make rejections
  // likely; odd lengths exercise the unrolled-block tail).
  for (const std::uint32_t range :
       {1u, 2u, 7u, 97u, 1u << 16, 3221225473u /* 0.75·2^32: ~25% reject */,
        4294967291u /* largest prime < 2^32 */}) {
    for (const std::size_t length : {0u, 1u, 3u, 4u, 5u, 1023u}) {
      Xoshiro256pp batched(42), sequential(42);
      std::vector<std::uint32_t> out(length);
      iba::rng::fill_bounded(batched, out, range);
      for (std::size_t i = 0; i < length; ++i) {
        ASSERT_EQ(out[i], iba::rng::bounded32(sequential, range))
            << "range " << range << " index " << i;
      }
      // Both engines must be in the same state afterwards.
      EXPECT_EQ(batched(), sequential()) << "range " << range;
    }
  }
}

TEST(Bounded, UniformInClosedInterval) {
  Xoshiro256pp eng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = uniform_in(eng, 10, 13);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit in 1000 draws
}

TEST(Seed, DeriveSeedInjectiveOverStreams) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 100000; ++s) {
    seen.insert(derive_seed(123456789, s));
  }
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(Seed, DeterministicAcrossCalls) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
}

TEST(Seed, SequenceMatchesDeriveSeeds) {
  SeedSequence seq(42);
  const auto expected = derive_seeds(42, 5);
  for (std::uint64_t e : expected) EXPECT_EQ(seq.next(), e);
}

TEST(Seed, SplitNamespacesAreDisjoint) {
  SeedSequence parent(42);
  SeedSequence child = parent.split();
  std::unordered_set<std::uint64_t> all;
  for (int i = 0; i < 1000; ++i) {
    all.insert(parent.next());
    all.insert(child.next());
  }
  EXPECT_EQ(all.size(), 2000u);
}

}  // namespace
