// Integration tests of the measurement loops: sim::run_experiment's
// burn-in, aggregation and determinism; the paper's reference through
// scenario::run_scenario; and the two loops measuring the same process
// on a small paper grid.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>

#include "analysis/bounds.hpp"
#include "artifact/artifact.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "scenario/progress.hpp"
#include "scenario/runner.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"

namespace {

using namespace iba::sim;
using iba::core::Capped;
using iba::core::CappedConfig;
using iba::core::Engine;
using iba::core::RoundKernel;

CappedConfig small_config() {
  CappedConfig config;
  config.n = 512;
  config.capacity = 2;
  config.lambda_n = 384;  // λ = 3/4
  return config;
}

RunResult run_small(std::uint64_t seed) {
  Capped process(small_config(), Engine(seed));
  return run_experiment(process, {.burn_in = 100, .measure_rounds = 300});
}

TEST(SimConfig, LambdaHelpers) {
  EXPECT_DOUBLE_EQ(lambda_one_minus_2pow(1), 0.5);
  EXPECT_DOUBLE_EQ(lambda_one_minus_2pow(10), 1.0 - 1.0 / 1024.0);
  EXPECT_EQ(lambda_n_for(1024, 2), 768u);
  EXPECT_EQ(lambda_n_for(1 << 15, 10), (1u << 15) - 32u);
}

TEST(Runner, MeasuresRequestedRounds) {
  const auto result = run_small(7);
  EXPECT_EQ(result.measured_rounds, 300u);
  EXPECT_EQ(result.burn_in_used, 100u);
  EXPECT_EQ(result.pool.count(), 300u);
  EXPECT_GT(result.deletions, 0u);
  EXPECT_GT(result.rounds_per_second, 0.0);
}

TEST(Runner, DeterministicForSameSeed) {
  const auto a = run_small(7);
  const auto b = run_small(7);
  EXPECT_DOUBLE_EQ(a.normalized_pool.mean(), b.normalized_pool.mean());
  EXPECT_DOUBLE_EQ(a.wait_mean, b.wait_mean);
  EXPECT_EQ(a.wait_max, b.wait_max);
}

TEST(Runner, NormalizedPoolNearPaperReference) {
  // After the fixed burn-in the normalized pool should sit near the
  // paper's empirical law ln(1/(1−λ))/c + 1 (±50% tolerance at small n).
  iba::scenario::Scenario scn;
  scn.n = 4096;
  scn.capacity = 1;
  scn.arrival = iba::scenario::ArrivalModel::constant(0.75);
  scn.burn_in = suggested_burn_in(0.75);
  scn.rounds = 500;
  scn.seed = 11;
  const auto result =
      iba::artifact::observables(iba::scenario::run_scenario(scn).artifact);
  // The c = 1 mean-field steady state is sharp: pool/n = ln(1/(1−λ)) − λ.
  const double mean_field = iba::analysis::mean_field_pool_c1(0.75);
  EXPECT_NEAR(result.pool_over_n, mean_field, 0.2 * mean_field);
  // The paper's dashed reference curve upper-bounds the measurement.
  EXPECT_LT(result.pool_over_n, iba::analysis::fig4_reference(0.75, 1));
  // And safely below the Theorem 1 w.h.p. bound.
  EXPECT_LT(static_cast<double>(result.pool_max),
            iba::analysis::pool_bound_thm1(scn.n, 0.75));
}

TEST(Runner, WaitStatsResetAfterBurnIn) {
  // wait_max reflects the measurement window only: for a stabilized c=1
  // λ=1/2 system it is small even though burn-in started from empty.
  CappedConfig config;
  config.n = 1024;
  config.capacity = 1;
  config.lambda_n = 512;
  Capped process(config, Engine(1));
  const auto result =
      run_experiment(process, {.burn_in = 200, .measure_rounds = 200});
  EXPECT_GT(result.deletions, 0u);
  EXPECT_LT(result.wait_mean, 10.0);
  EXPECT_LE(result.wait_max, 64u);
}

TEST(Runner, WorksWithOtherProcesses) {
  iba::core::BatchGreedyConfig config{.n = 256, .d = 2, .lambda_n = 192};
  iba::core::BatchGreedy process(config, iba::core::Engine(3));
  const auto result =
      run_experiment(process, {.burn_in = 100, .measure_rounds = 200});
  EXPECT_EQ(result.measured_rounds, 200u);
  EXPECT_EQ(result.pool.mean(), 0.0);  // GREEDY[d] has no pool
  EXPECT_GT(result.system_load.mean(), 0.0);
}

// The benches that stay on run_experiment (d-choice, per-bin
// capacities, ablations, failures, ball tracing) build their Capped from
// scenario::capped_config of the cell the others run through
// run_scenario. On the paper's grid both loops must measure the same
// process: same deletions, wait mean, max and p99, and pool/n and system
// load/n equal up to the round-off of run_experiment's floating-point
// means.
using Execution = std::pair<RoundKernel, std::uint32_t /*shards*/>;
using LoopCase =
    std::tuple<std::uint32_t /*c*/, std::uint32_t /*i*/, Execution>;

class LoopEquivalence : public ::testing::TestWithParam<LoopCase> {};

TEST_P(LoopEquivalence, ScenarioAndExperimentMeasureTheSameProcess) {
  const auto [c, i, execution] = GetParam();
  const auto [kernel, shards] = execution;
  constexpr std::uint32_t n = 512;
  const std::uint64_t lambda_n = lambda_n_for(n, i);
  const double lambda = static_cast<double>(lambda_n) / n;
  iba::scenario::Scenario scn;
  scn.n = n;
  scn.capacity = c;
  scn.arrival = iba::scenario::ArrivalModel::constant(lambda);
  scn.burn_in = suggested_burn_in(lambda);
  scn.rounds = 400;
  scn.seed = 2021;

  iba::scenario::RunOptions options;
  options.kernel = kernel;
  options.shards = shards;
  const auto cell = iba::artifact::observables(
      iba::scenario::run_scenario(scn, options).artifact);

  CappedConfig config = iba::scenario::capped_config(scn);
  ASSERT_EQ(config.lambda_n, lambda_n);
  config.kernel = kernel;
  config.shards = shards;
  Capped process(config, Engine(scn.seed));
  const RunResult r = run_experiment(
      process, {.burn_in = scn.burn_in, .measure_rounds = scn.rounds});

  EXPECT_EQ(r.deletions, cell.deletions);
  EXPECT_EQ(r.wait_mean, cell.wait_mean);
  EXPECT_EQ(r.wait_max, cell.wait_max);
  EXPECT_EQ(r.wait_p99_upper, static_cast<double>(cell.wait_p99));
  EXPECT_EQ(r.pool.max(), static_cast<double>(cell.pool_max));
  EXPECT_NEAR(r.normalized_pool.mean(), cell.pool_over_n,
              1e-12 * cell.pool_over_n);
  EXPECT_NEAR(r.system_load.mean() / n, cell.system_load_over_n,
              1e-12 * cell.system_load_over_n);
}

std::string loop_case_name(const ::testing::TestParamInfo<LoopCase>& param) {
  const auto [c, i, execution] = param.param;
  const auto [kernel, shards] = execution;
  // Appended piecewise: gcc 12 reports a false -Wrestrict on a chain of
  // "literal" + std::string.
  std::string name = "c";
  name += std::to_string(c);
  name += "_i";
  name += std::to_string(i);
  name += kernel == RoundKernel::kScalar ? "_scalar" : "_binmajor";
  name += "_shards";
  name += std::to_string(shards);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, LoopEquivalence,
    ::testing::Combine(::testing::Values(1u, 3u), ::testing::Values(2u, 6u),
                       ::testing::Values(Execution(RoundKernel::kBinMajor, 1),
                                         Execution(RoundKernel::kBinMajor, 4),
                                         Execution(RoundKernel::kScalar, 1))),
    loop_case_name);

}  // namespace
