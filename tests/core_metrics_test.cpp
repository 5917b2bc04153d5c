// Direct unit tests for the measurement primitives of core: RoundMetrics
// defaults and WaitRecorder semantics (moments, dyadic quantile bounds,
// reset, merge behaviour via the underlying histogram, weighted records).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/capped.hpp"
#include "core/metrics.hpp"

namespace {

using iba::core::CappedWaitState;
using iba::core::RoundMetrics;
using iba::core::WaitRecorder;

TEST(RoundMetrics, DefaultConstructedIsAllZero) {
  const RoundMetrics m;
  EXPECT_EQ(m.round, 0u);
  EXPECT_EQ(m.generated, 0u);
  EXPECT_EQ(m.thrown, 0u);
  EXPECT_EQ(m.accepted, 0u);
  EXPECT_EQ(m.deleted, 0u);
  EXPECT_EQ(m.pool_size, 0u);
  EXPECT_EQ(m.total_load, 0u);
  EXPECT_EQ(m.max_load, 0u);
  EXPECT_EQ(m.empty_bins, 0u);
  EXPECT_EQ(m.wait_count, 0u);
  EXPECT_EQ(m.wait_sum, 0.0);
  EXPECT_EQ(m.wait_max, 0u);
  EXPECT_EQ(m.requeued, 0u);
  EXPECT_EQ(m.oldest_pool_age, 0u);
}

TEST(WaitRecorder, EmptyRecorder) {
  const WaitRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.mean(), 0.0);
  EXPECT_EQ(recorder.max(), 0u);
  EXPECT_EQ(recorder.quantile_upper_bound(0.5), 0u);
}

TEST(WaitRecorder, MomentsMatchHandComputation) {
  WaitRecorder recorder;
  for (const std::uint64_t wait : {0u, 1u, 1u, 2u, 6u}) {
    recorder.record(wait);
  }
  EXPECT_EQ(recorder.count(), 5u);
  EXPECT_DOUBLE_EQ(recorder.mean(), 2.0);
  EXPECT_EQ(recorder.max(), 6u);
  // Sample stddev of {0,1,1,2,6}: variance = (4+1+1+0+16)/4 = 5.5.
  EXPECT_NEAR(recorder.stddev() * recorder.stddev(), 5.5, 1e-12);
}

TEST(WaitRecorder, QuantileUpperBoundIsDyadicallyTight) {
  WaitRecorder recorder;
  for (std::uint64_t w = 0; w < 100; ++w) recorder.record(w);
  const auto p50 = recorder.quantile_upper_bound(0.5);
  EXPECT_GE(p50, 49u);       // not below the exact median
  EXPECT_LE(p50, 63u);       // within the dyadic bucket [32, 64)
  const auto p99 = recorder.quantile_upper_bound(0.99);
  EXPECT_GE(p99, 98u);
  EXPECT_LE(p99, 127u);
}

TEST(WaitRecorder, HistogramExposureAndReset) {
  WaitRecorder recorder;
  recorder.record(3);
  recorder.record(5);
  EXPECT_EQ(recorder.histogram().total(), 2u);
  EXPECT_EQ(recorder.histogram().count(2), 1u);  // value 3 → bucket [2,4)
  EXPECT_EQ(recorder.histogram().count(3), 1u);  // value 5 → bucket [4,8)
  recorder.reset();
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.histogram().total(), 0u);
  recorder.record(1);
  EXPECT_EQ(recorder.count(), 1u);
}

TEST(WaitRecorder, MomentsAccessorConsistent) {
  WaitRecorder recorder;
  for (int i = 1; i <= 1000; ++i) recorder.record(static_cast<std::uint64_t>(i % 17));
  EXPECT_EQ(recorder.moments().count(), 1000u);
  EXPECT_DOUBLE_EQ(recorder.moments().mean(), recorder.mean());
}

// The dyadic contract, stated precisely: for any sample set and any q,
// quantile_upper_bound(q) is (a) >= the exact q-quantile and (b) < twice
// the exact q-quantile rounded up to its bucket top — i.e. the bound is
// the top of the dyadic bucket [2^(k-1), 2^k) the exact quantile lies in.
TEST(WaitRecorder, QuantileUpperBoundBracketsExactQuantile) {
  for (const std::uint64_t scale : {1u, 3u, 17u, 1000u}) {
    WaitRecorder recorder;
    std::vector<std::uint64_t> values;
    for (std::uint64_t i = 0; i < 500; ++i) {
      const std::uint64_t v = (i * i) % (scale * 64 + 1);
      recorder.record(v);
      values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(values.size())));
      const std::uint64_t exact = values[rank == 0 ? 0 : rank - 1];
      const std::uint64_t bound = recorder.quantile_upper_bound(q);
      EXPECT_GE(bound, exact) << "scale=" << scale << " q=" << q;
      // Upper edge of the exact value's dyadic bucket.
      const std::uint64_t bucket_top =
          exact <= 1 ? exact : (std::bit_ceil(exact + 1) - 1);
      EXPECT_LE(bound, bucket_top) << "scale=" << scale << " q=" << q;
    }
  }
}

TEST(WaitRecorder, QuantileUpperBoundPowerOfTwoEdges) {
  WaitRecorder recorder;
  // 2^k sits in bucket [2^k, 2^(k+1)), so the dyadic upper bound for a
  // point mass at 2^k is 2^(k+1) - 1.
  recorder.record(64);
  EXPECT_EQ(recorder.quantile_upper_bound(0.5), 127u);
  EXPECT_EQ(recorder.quantile_upper_bound(1.0), 127u);
  recorder.reset();
  // 2^k - 1 is the top of its own bucket: the bound is exact there.
  recorder.record(63);
  EXPECT_EQ(recorder.quantile_upper_bound(1.0), 63u);
  recorder.reset();
  recorder.record(0);
  EXPECT_EQ(recorder.quantile_upper_bound(1.0), 0u);
  recorder.record(1);
  EXPECT_EQ(recorder.quantile_upper_bound(0.25), 0u);
  EXPECT_EQ(recorder.quantile_upper_bound(1.0), 1u);
}

void expect_state_eq(const CappedWaitState& a, const CappedWaitState& b,
                     std::uint64_t wait, std::uint64_t weight) {
  EXPECT_EQ(a.count, b.count) << wait << " x" << weight;
  EXPECT_EQ(a.sum, b.sum) << wait << " x" << weight;
  EXPECT_EQ(a.sumsq_hi, b.sumsq_hi) << wait << " x" << weight;
  EXPECT_EQ(a.sumsq_lo, b.sumsq_lo) << wait << " x" << weight;
  EXPECT_EQ(a.max, b.max) << wait << " x" << weight;
  EXPECT_EQ(a.histogram, b.histogram) << wait << " x" << weight;
}

// record(w, k) must leave exactly the state of k calls of record(w),
// the histogram's width and maximum included: the delete walk folds its
// per-value tally in this way, on both sides of its 64-value bound, and
// checkpoints store the state byte for byte.
TEST(WaitRecorder, WeightedRecordEqualsRepeatedRecords) {
  for (const std::uint64_t wait :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{1} << 40,
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    for (const std::uint64_t weight : {0u, 1u, 3u, 64u}) {
      WaitRecorder weighted;
      WaitRecorder repeated;
      weighted.record(2);
      repeated.record(2);
      weighted.record(wait, weight);
      for (std::uint64_t i = 0; i < weight; ++i) repeated.record(wait);
      expect_state_eq(wait_state(weighted), wait_state(repeated), wait,
                      weight);
    }
  }
  // A zero weight leaves an empty recorder empty: no histogram bins, no
  // maximum.
  WaitRecorder empty;
  empty.record(1000, 0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_TRUE(empty.histogram().counts().empty());
  // The largest value lands in the histogram's last bin, 64.
  WaitRecorder top;
  top.record(0xFFFFFFFFFFFFFFFF, 2);
  EXPECT_EQ(top.histogram().bin_count(), 65u);
  EXPECT_EQ(top.histogram().count(64), 2u);
  EXPECT_EQ(top.max(), 0xFFFFFFFFFFFFFFFFu);
}

// Per-round flow conservation under the crash-requeue failure path:
// generated + requeued must equal accepted + pool growth each round, and
// the lifetime ledger generated = pool + in-bins + deleted must hold —
// crashing bins return balls to the pool without creating or losing any.
TEST(RoundMetrics, ConservationUnderCrashRequeue) {
  using iba::core::Capped;
  using iba::core::CappedConfig;
  using iba::core::FailureMode;

  CappedConfig config;
  config.n = 128;
  config.capacity = 2;
  config.lambda_n = 112;  // λ = 7/8
  config.failure_probability = 0.2;  // frequent crashes
  config.failure_mode = FailureMode::kCrashRequeue;
  Capped process(config, iba::core::Engine(99));

  std::uint64_t previous_pool = 0;
  std::uint64_t total_requeued = 0;
  for (int round = 0; round < 500; ++round) {
    const RoundMetrics m = process.step();
    // Round-local flow: every thrown ball (old pool + generated) is
    // either accepted or back in the pool; crashed buffers re-enter the
    // pool on top.
    EXPECT_EQ(m.thrown, previous_pool + m.generated);
    EXPECT_EQ(m.thrown + m.requeued, m.accepted + m.pool_size);
    // The ISSUE's phrasing: generated + requeued = accepted + pool delta.
    EXPECT_EQ(m.generated + m.requeued,
              m.accepted + m.pool_size - previous_pool);
    previous_pool = m.pool_size;
    total_requeued += m.requeued;
    // Lifetime ledger.
    EXPECT_EQ(process.generated_total(),
              process.pool_size() + process.total_load() +
                  process.deleted_total());
  }
  EXPECT_GT(total_requeued, 0u) << "failure path never exercised";
}

}  // namespace
