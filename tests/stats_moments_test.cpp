// Tests for OnlineMoments (Welford/Pébay) and Summary: agreement with
// two-pass reference computations, merge correctness, and edge cases;
// and for UintMoments' weighted add.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "rng/bounded.hpp"
#include "rng/xoshiro256.hpp"
#include "stats/int_moments.hpp"
#include "stats/summary.hpp"
#include "stats/welford.hpp"

namespace {

using iba::stats::OnlineMoments;
using iba::stats::Summary;
using iba::stats::UintMoments;

struct Reference {
  double mean = 0, var_pop = 0, var_sample = 0, skew = 0, kurt = 0;
};

Reference two_pass(const std::vector<double>& xs) {
  Reference r;
  const double n = static_cast<double>(xs.size());
  for (double x : xs) r.mean += x;
  r.mean /= n;
  double m2 = 0, m3 = 0, m4 = 0;
  for (double x : xs) {
    const double d = x - r.mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  r.var_pop = m2 / n;
  r.var_sample = xs.size() > 1 ? m2 / (n - 1) : 0;
  r.skew = m2 > 0 ? std::sqrt(n) * m3 / std::pow(m2, 1.5) : 0;
  r.kurt = m2 > 0 ? n * m4 / (m2 * m2) - 3.0 : 0;
  return r;
}

std::vector<double> lognormal_like_sample(std::uint64_t seed, int count) {
  iba::rng::Xoshiro256pp eng(seed);
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = iba::rng::uniform01_open_low(eng);
    xs.push_back(std::exp(2 * u) + 0.1 * static_cast<double>(i % 7));
  }
  return xs;
}

TEST(OnlineMoments, EmptyAccumulator) {
  OnlineMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.sample_variance(), 0.0);
  EXPECT_EQ(m.sem(), 0.0);
}

TEST(OnlineMoments, SingleValue) {
  OnlineMoments m;
  m.add(42.0);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.mean(), 42.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.min(), 42.0);
  EXPECT_EQ(m.max(), 42.0);
}

TEST(OnlineMoments, MatchesTwoPassReference) {
  const auto xs = lognormal_like_sample(7, 5000);
  const auto ref = two_pass(xs);
  OnlineMoments m;
  for (double x : xs) m.add(x);
  EXPECT_NEAR(m.mean(), ref.mean, 1e-9 * std::abs(ref.mean));
  EXPECT_NEAR(m.variance(), ref.var_pop, 1e-8 * ref.var_pop);
  EXPECT_NEAR(m.sample_variance(), ref.var_sample, 1e-8 * ref.var_sample);
  EXPECT_NEAR(m.skewness(), ref.skew, 1e-6);
  EXPECT_NEAR(m.kurtosis(), ref.kurt, 1e-6);
}

TEST(OnlineMoments, MergeEqualsConcatenation) {
  const auto xs = lognormal_like_sample(8, 3000);
  OnlineMoments whole, left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i < 1000 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10 * std::abs(whole.mean()));
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8 * whole.variance());
  EXPECT_NEAR(left.skewness(), whole.skewness(), 1e-6);
  EXPECT_NEAR(left.kurtosis(), whole.kurtosis(), 1e-6);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(OnlineMoments, MergeWithEmptySides) {
  OnlineMoments a, b;
  a.add(1.0);
  a.add(2.0);
  OnlineMoments a_copy = a;
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), a_copy.mean());
  b.merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), 1.5);
}

TEST(OnlineMoments, ShiftInvarianceOfVariance) {
  // Catastrophic-cancellation check: huge offset must not destroy variance.
  OnlineMoments near_zero, shifted;
  const double offset = 1e12;
  iba::rng::Xoshiro256pp eng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = iba::rng::uniform01(eng);
    near_zero.add(x);
    shifted.add(x + offset);
  }
  EXPECT_NEAR(shifted.variance(), near_zero.variance(),
              0.01 * near_zero.variance());
}

TEST(OnlineMoments, ResetClearsState) {
  OnlineMoments m;
  m.add(1);
  m.add(2);
  m.reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
}

TEST(OnlineMoments, SymmetricDataHasZeroSkew) {
  OnlineMoments m;
  for (int i = -100; i <= 100; ++i) m.add(i);
  EXPECT_NEAR(m.skewness(), 0.0, 1e-9);
}

TEST(Summary, TracksMomentsAndQuantiles) {
  Summary s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_NEAR(s.mean(), 500.5, 1e-9);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 1000.0);
  EXPECT_NEAR(s.p50(), 500.0, 15.0);
  EXPECT_NEAR(s.p90(), 900.0, 20.0);
  EXPECT_NEAR(s.p99(), 990.0, 10.0);
}

TEST(Summary, EmptySummaryIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Summary, ToStringContainsMean) {
  Summary s;
  s.add(5.0);
  s.add(5.0);
  EXPECT_NE(s.to_string().find('5'), std::string::npos);
}

// add(x, k) must leave exactly the state of k calls of add(x): count,
// Σx and the 128-bit Σx², including x ≥ 2^32 (x² past 64 bits) and sums
// that wrap.
TEST(UintMoments, WeightedAddEqualsRepeatedAdds) {
  const std::uint64_t big = (std::uint64_t{1} << 40) + 7;
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63}, big,
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    for (const std::uint64_t k : {0u, 1u, 2u, 5u, 1000u}) {
      UintMoments weighted;
      UintMoments repeated;
      weighted.add(3);
      repeated.add(3);
      weighted.add(x, k);
      for (std::uint64_t i = 0; i < k; ++i) repeated.add(x);
      EXPECT_EQ(weighted.count(), repeated.count()) << x << " x" << k;
      EXPECT_EQ(weighted.sum(), repeated.sum()) << x << " x" << k;
      EXPECT_EQ(weighted.sumsq_hi(), repeated.sumsq_hi()) << x << " x" << k;
      EXPECT_EQ(weighted.sumsq_lo(), repeated.sumsq_lo()) << x << " x" << k;
    }
  }
  // The 128-bit product is taken before any truncation: (2^40 + 7)² · 5
  // has a non-zero high half.
  UintMoments m;
  m.add(big, 5);
  EXPECT_GT(m.sumsq_hi(), 0u);
}

}  // namespace
