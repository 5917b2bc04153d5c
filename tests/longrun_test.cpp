// Long-horizon tests: the paper's guarantees hold "at any (even
// exponentially large) time". These runs push tens of thousands of
// rounds at moderate n and assert the Theorem 1/2 bounds, conservation,
// and stationarity of the pool — the executable version of positive
// recurrence.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/bounds.hpp"
#include "core/capped.hpp"
#include "stats/welford.hpp"

namespace {

using namespace iba;
using core::Capped;
using core::CappedConfig;
using core::Engine;

/// Effective sample size n / (1 + 2·Σ ρ_k), the sum cut at the first
/// non-positive lag autocorrelation (Geyer's initial positive sequence).
double effective_sample_size(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  double mu = 0.0;
  for (const double x : xs) mu += x;
  mu /= static_cast<double>(n);
  double var = 0.0;
  for (const double x : xs) var += (x - mu) * (x - mu);
  double rho_sum = 0.0;
  for (std::size_t lag = 1; var > 0.0 && lag < n / 2; ++lag) {
    double cov = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      cov += (xs[i] - mu) * (xs[i + lag] - mu);
    }
    if (cov <= 0.0) break;
    rho_sum += cov / var;
  }
  return static_cast<double>(n) / (1.0 + 2.0 * rho_sum);
}

struct LongParam {
  std::uint32_t n;
  std::uint32_t c;
  std::uint64_t lambda_n;
};

class LongRun : public ::testing::TestWithParam<LongParam> {};

TEST_P(LongRun, BoundsHoldForTwentyThousandRounds) {
  const auto p = GetParam();
  CappedConfig config;
  config.n = p.n;
  config.capacity = p.c;
  config.lambda_n = p.lambda_n;
  const double lambda = config.lambda();
  Capped process(config, Engine(p.n + p.c));

  const double pool_bound =
      p.c == 1 ? analysis::pool_bound_thm1(p.n, lambda)
               : analysis::pool_bound_thm2(p.n, lambda, p.c);
  const double wait_bound =
      p.c == 1 ? analysis::wait_bound_thm1(p.n, lambda)
               : analysis::wait_bound_thm2(p.n, lambda, p.c);

  for (int round = 0; round < 20000; ++round) {
    const auto m = process.step();
    ASSERT_LT(static_cast<double>(m.pool_size), pool_bound)
        << "round " << round;
    ASSERT_LT(static_cast<double>(m.wait_max), wait_bound)
        << "round " << round;
  }
  EXPECT_EQ(process.generated_total(),
            process.pool_size() + process.total_load() +
                process.deleted_total());
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, LongRun,
    ::testing::Values(LongParam{512, 1, 384}, LongParam{512, 2, 496},
                      LongParam{1024, 1, 1008}, LongParam{1024, 3, 960},
                      LongParam{256, 2, 255}));

TEST(LongRun, PoolIsStationaryAfterBurnIn) {
  // Positive recurrence in practice: after burn-in, the first and second
  // halves of a long window have statistically indistinguishable means.
  CappedConfig config;
  config.n = 1024;
  config.capacity = 2;
  config.lambda_n = 960;
  Capped process(config, Engine(5));
  for (int i = 0; i < 3000; ++i) (void)process.step();

  stats::OnlineMoments first_half, second_half;
  std::vector<double> series;
  const int window = 10000;
  for (int i = 0; i < window; ++i) {
    const auto pool = static_cast<double>(process.step().pool_size);
    series.push_back(pool);
    (i < window / 2 ? first_half : second_half).add(pool);
  }
  // Means agree within a few combined standard errors (autocorrelation
  // inflates the true sem, so use a generous factor on top).
  const double sem = first_half.sem() + second_half.sem();
  EXPECT_NEAR(first_half.mean(), second_half.mean(), 12 * sem + 1.0);
  // And the process decorrelates: the ESS is far above the lag-1 floor.
  EXPECT_GT(effective_sample_size(series), 50.0);
}

TEST(LongRun, ReturnsToLowLoadInfinitelyOften) {
  // Positive recurrence: the pool keeps returning below its long-run
  // mean; count returns over a long horizon.
  CappedConfig config;
  config.n = 512;
  config.capacity = 1;
  config.lambda_n = 448;  // λ = 7/8
  Capped process(config, Engine(6));
  for (int i = 0; i < 2000; ++i) (void)process.step();

  const double mean_field =
      analysis::mean_field_pool_c1(config.lambda()) * config.n;
  int returns = 0;
  bool above = false;
  for (int i = 0; i < 20000; ++i) {
    const auto pool = static_cast<double>(process.step().pool_size);
    if (pool > mean_field) {
      above = true;
    } else if (above) {
      ++returns;
      above = false;
    }
  }
  EXPECT_GT(returns, 100);  // crosses its mean level over and over
}

}  // namespace
