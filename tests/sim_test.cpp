// Integration tests of the simulation engine: config validation, burn-in
// behaviour, measurement aggregation and determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "core/greedy.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"

namespace {

using namespace iba::sim;

SimConfig small_config() {
  SimConfig config;
  config.n = 512;
  config.capacity = 2;
  config.lambda_n = 384;  // λ = 3/4
  config.burn_in = 100;
  config.auto_burn_in = false;
  config.measure_rounds = 300;
  config.seed = 7;
  return config;
}

TEST(SimConfig, ValidationAndLabel) {
  SimConfig config = small_config();
  EXPECT_NO_THROW(config.validate());
  EXPECT_NE(config.label().find("c=2"), std::string::npos);
  config.lambda_n = config.n + 1;
  EXPECT_THROW(config.validate(), iba::ContractViolation);
  config = small_config();
  config.measure_rounds = 0;
  EXPECT_THROW(config.validate(), iba::ContractViolation);
}

TEST(SimConfig, LambdaHelpers) {
  EXPECT_DOUBLE_EQ(lambda_one_minus_2pow(1), 0.5);
  EXPECT_DOUBLE_EQ(lambda_one_minus_2pow(10), 1.0 - 1.0 / 1024.0);
  EXPECT_EQ(lambda_n_for(1024, 2), 768u);
  EXPECT_EQ(lambda_n_for(1 << 15, 10), (1u << 15) - 32u);
}

TEST(Runner, MeasuresRequestedRounds) {
  const auto result = run_capped(small_config());
  EXPECT_EQ(result.measured_rounds, 300u);
  EXPECT_EQ(result.burn_in_used, 100u);
  EXPECT_EQ(result.pool.count(), 300u);
  EXPECT_GT(result.deletions, 0u);
  EXPECT_GT(result.rounds_per_second, 0.0);
}

TEST(Runner, DeterministicForSameSeed) {
  const auto a = run_capped(small_config());
  const auto b = run_capped(small_config());
  EXPECT_DOUBLE_EQ(a.normalized_pool.mean(), b.normalized_pool.mean());
  EXPECT_DOUBLE_EQ(a.wait_mean, b.wait_mean);
  EXPECT_EQ(a.wait_max, b.wait_max);
}

TEST(Runner, AutoBurnInExtendsPastFloor) {
  SimConfig config = small_config();
  config.n = 1024;
  config.lambda_n = 1023;  // λ close to 1: slow ramp-up
  config.burn_in = 10;
  config.auto_burn_in = true;
  config.max_burn_in = 20000;
  const auto result = run_capped(config);
  EXPECT_GT(result.burn_in_used, 10u);
  EXPECT_LE(result.burn_in_used, 20000u);
}

TEST(Runner, NormalizedPoolNearPaperReference) {
  // After stabilization the normalized pool should sit near the paper's
  // empirical law ln(1/(1−λ))/c + 1 (±50% tolerance at small n).
  SimConfig config;
  config.n = 4096;
  config.capacity = 1;
  config.lambda_n = 3072;  // λ = 3/4
  config.auto_burn_in = true;
  config.burn_in = 200;
  config.measure_rounds = 500;
  config.seed = 11;
  const auto result = run_capped(config);
  // The c = 1 mean-field steady state is sharp: pool/n = ln(1/(1−λ)) − λ.
  const double mean_field = iba::analysis::mean_field_pool_c1(0.75);
  EXPECT_NEAR(result.normalized_pool.mean(), mean_field, 0.2 * mean_field);
  // The paper's dashed reference curve upper-bounds the measurement.
  EXPECT_LT(result.normalized_pool.mean(),
            iba::analysis::fig4_reference(0.75, 1));
  // And safely below the Theorem 1 w.h.p. bound.
  EXPECT_LT(result.pool.max(),
            iba::analysis::pool_bound_thm1(config.n, 0.75));
}

TEST(Runner, WaitStatsResetAfterBurnIn) {
  // wait_max reflects the measurement window only: for a stabilized c=1
  // λ=1/2 system it is small even though burn-in started from empty.
  SimConfig config;
  config.n = 1024;
  config.capacity = 1;
  config.lambda_n = 512;
  config.burn_in = 200;
  config.auto_burn_in = false;
  config.measure_rounds = 200;
  const auto result = run_capped(config);
  EXPECT_GT(result.deletions, 0u);
  EXPECT_LT(result.wait_mean, 10.0);
  EXPECT_LE(result.wait_max, 64u);
}

TEST(Runner, WorksWithOtherProcesses) {
  iba::core::BatchGreedyConfig config{.n = 256, .d = 2, .lambda_n = 192};
  iba::core::BatchGreedy process(config, iba::core::Engine(3));
  RunSpec spec;
  spec.burn_in = 100;
  spec.auto_burn_in = false;
  spec.measure_rounds = 200;
  const auto result = run_experiment(process, spec);
  EXPECT_EQ(result.measured_rounds, 200u);
  EXPECT_EQ(result.pool.mean(), 0.0);  // GREEDY[d] has no pool
  EXPECT_GT(result.system_load.mean(), 0.0);
}

}  // namespace
