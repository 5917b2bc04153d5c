// Tests for the dyadic histogram, P² quantiles, and the runner's burn-in
// window check.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/bounded.hpp"
#include "rng/xoshiro256.hpp"
#include "stats/histogram.hpp"
#include "stats/p2_quantile.hpp"

namespace {

using namespace iba::stats;

TEST(Log2Histogram, DyadicBinning) {
  Log2Histogram h;
  h.add(0);   // bin 0
  h.add(1);   // bin 1: [1, 2)
  h.add(2);   // bin 2: [2, 4)
  h.add(3);   // bin 2
  h.add(4);   // bin 3: [4, 8)
  h.add(7);   // bin 3
  h.add(8);   // bin 4
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 2u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(Log2Histogram::bin_lo(3), 4u);
  EXPECT_EQ(Log2Histogram::bin_hi(3), 8u);
}

TEST(Log2Histogram, QuantileUpperBoundBracketsExact) {
  Log2Histogram h;
  for (std::uint64_t v = 0; v < 1000; ++v) h.add(v);
  const auto q50 = h.quantile_upper_bound(0.5);
  EXPECT_GE(q50, 499u);   // not below the exact median
  EXPECT_LE(q50, 1023u);  // within the dyadic bin of the median
  EXPECT_EQ(h.quantile_upper_bound(1.0), 1023u);
}

TEST(Log2Histogram, MergeAddsCounts) {
  Log2Histogram a, b;
  a.add(1);
  a.add(100);
  b.add(5000);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.max(), 5000u);
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile q(0.5);
  q.add(3);
  EXPECT_EQ(q.value(), 3.0);
  q.add(1);
  q.add(2);
  EXPECT_EQ(q.value(), 2.0);  // median of {1,2,3}
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), iba::ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), iba::ContractViolation);
}

TEST(P2Quantile, ConvergesOnUniform) {
  iba::rng::Xoshiro256pp eng(11);
  P2Quantile p50(0.5), p95(0.95);
  for (int i = 0; i < 100000; ++i) {
    const double u = iba::rng::uniform01(eng);
    p50.add(u);
    p95.add(u);
  }
  EXPECT_NEAR(p50.value(), 0.5, 0.02);
  EXPECT_NEAR(p95.value(), 0.95, 0.02);
}

TEST(P2Quantile, ConvergesOnSkewedData) {
  iba::rng::Xoshiro256pp eng(12);
  P2Quantile p90(0.9);
  // Exp(1): true p90 = ln 10 ≈ 2.3026.
  for (int i = 0; i < 200000; ++i) {
    p90.add(-std::log(iba::rng::uniform01_open_low(eng)));
  }
  EXPECT_NEAR(p90.value(), std::log(10.0), 0.1);
}

}  // namespace
