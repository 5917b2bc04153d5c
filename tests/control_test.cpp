// Unit tests of the adaptive control plane (src/control/): the online
// estimator's exact windowed statistics and serializable state, the
// capacity policies (including the lockstep pin between
// control::sweet_spot_capacity and analysis::suggest_capacity — two
// implementations of the paper's c* = round(√(ln(1/(1−λ))))), the
// controller's warm-up/cooldown discipline, and the auditor's
// dynamic-capacity invariant — including the broken-shrink regression
// where an overfull bin re-grows between deep audits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/bounds.hpp"
#include "control/controller.hpp"
#include "control/estimator.hpp"
#include "control/policy.hpp"
#include "core/capped.hpp"
#include "fault/auditor.hpp"

namespace {

using namespace iba;
using control::ControlConfig;
using control::Controller;
using control::DecisionInput;
using control::OnlineEstimator;
using control::Policy;
using control::PolicyState;
using core::Capped;
using core::CappedConfig;
using core::Engine;
using core::RoundMetrics;

RoundMetrics metrics(std::uint64_t generated, std::uint64_t pool,
                     std::uint64_t wait_sum, std::uint64_t wait_count) {
  RoundMetrics m;
  m.generated = generated;
  m.pool_size = pool;
  m.wait_sum = static_cast<double>(wait_sum);
  m.wait_count = wait_count;
  return m;
}

// -- estimator -------------------------------------------------------

TEST(OnlineEstimator, WindowedLambdaIsExact) {
  OnlineEstimator est(/*n=*/100, /*window=*/4);
  EXPECT_FALSE(est.warm());
  EXPECT_DOUBLE_EQ(est.lambda_window(), 0.0);
  est.observe(metrics(50, 0, 0, 0));
  est.observe(metrics(70, 0, 0, 0));
  EXPECT_DOUBLE_EQ(est.lambda_window(), 120.0 / 200.0);
  est.observe(metrics(90, 0, 0, 0));
  est.observe(metrics(90, 0, 0, 0));
  EXPECT_TRUE(est.warm());
  EXPECT_DOUBLE_EQ(est.lambda_window(), 300.0 / 400.0);
  // Eviction: the first sample (50) leaves the window.
  est.observe(metrics(100, 0, 0, 0));
  EXPECT_DOUBLE_EQ(est.lambda_window(), 350.0 / 400.0);
}

TEST(OnlineEstimator, EwmaInitializesFromFirstObservation) {
  OnlineEstimator est(/*n=*/100, /*window=*/9);  // α = 0.2
  est.observe(metrics(80, 0, 0, 0));
  EXPECT_DOUBLE_EQ(est.lambda_ewma(), 0.8);
  est.observe(metrics(30, 0, 0, 0));
  EXPECT_DOUBLE_EQ(est.lambda_ewma(), 0.8 + 0.2 * (0.3 - 0.8));
}

TEST(OnlineEstimator, PoolTrendTracksBacklogDrift) {
  OnlineEstimator est(/*n=*/64, /*window=*/4);
  est.observe(metrics(0, 100, 0, 0));
  EXPECT_DOUBLE_EQ(est.pool_trend(), 0.0);  // needs two samples
  est.observe(metrics(0, 130, 0, 0));
  EXPECT_DOUBLE_EQ(est.pool_trend(), 30.0);
  est.observe(metrics(0, 160, 0, 0));
  est.observe(metrics(0, 190, 0, 0));
  EXPECT_DOUBLE_EQ(est.pool_trend(), 30.0);  // (190-100)/3
  // Shrinking backlog: negative trend.
  est.observe(metrics(0, 40, 0, 0));  // evicts the 100 sample
  EXPECT_LT(est.pool_trend(), 0.0);
}

TEST(OnlineEstimator, WaitMeanAndQuantileUpperBound) {
  OnlineEstimator est(/*n=*/64, /*window=*/4);
  EXPECT_DOUBLE_EQ(est.mean_wait(), 0.0);
  est.observe(metrics(0, 0, 30, 10));  // per-round mean 3
  est.observe(metrics(0, 0, 50, 10));  // per-round mean 5
  EXPECT_DOUBLE_EQ(est.mean_wait(), 80.0 / 20.0);
  // Dyadic upper bound: round means 3 and 5 live in buckets [2,3] and
  // [4,7]; the median upper bound is 3, the max upper bound 7.
  EXPECT_EQ(est.wait_quantile_upper(0.5), 3u);
  EXPECT_EQ(est.wait_quantile_upper(1.0), 7u);
  EXPECT_LE(est.mean_wait(), 2.0 * static_cast<double>(
                                       est.wait_quantile_upper(1.0)));
}

TEST(OnlineEstimator, StateRoundTripContinuesBitForBit) {
  OnlineEstimator a(/*n=*/64, /*window=*/8);
  for (std::uint64_t r = 0; r < 13; ++r) {
    a.observe(metrics(40 + (r * 7) % 25, 10 * r, 3 * r, r % 5));
  }
  OnlineEstimator b(/*n=*/64, /*window=*/8);
  b.restore(a.state());
  EXPECT_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.lambda_window(), b.lambda_window());
  EXPECT_DOUBLE_EQ(a.lambda_ewma(), b.lambda_ewma());
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
  EXPECT_EQ(a.wait_quantile_upper(0.95), b.wait_quantile_upper(0.95));
  // The restored estimator must keep evolving identically.
  for (std::uint64_t r = 0; r < 10; ++r) {
    const RoundMetrics m = metrics(60, 5 * r, 2 * r, r % 3);
    a.observe(m);
    b.observe(m);
  }
  EXPECT_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.lambda_ewma(), b.lambda_ewma());
}

TEST(OnlineEstimator, RestoreRejectsIllFittingState) {
  OnlineEstimator small(/*n=*/64, /*window=*/4);
  OnlineEstimator big(/*n=*/64, /*window=*/8);
  for (int r = 0; r < 10; ++r) big.observe(metrics(30, 0, 0, 0));
  EXPECT_THROW(small.restore(big.state()), ContractViolation);

  auto state = small.state();
  state.head = 4;  // == window: out of range
  EXPECT_THROW(small.restore(state), ContractViolation);
  state.head = 0;
  state.filled = 3;
  state.rounds = 2;  // filled > rounds observed: impossible
  EXPECT_THROW(small.restore(state), ContractViolation);
}

// -- policies --------------------------------------------------------

TEST(Policy, SweetSpotMatchesAnalysisSuggestion) {
  // control::sweet_spot_capacity must stay in lockstep with
  // analysis::suggest_capacity (same closed form, duplicated only to
  // avoid a core -> analysis dependency cycle).
  for (double lambda = 0.05; lambda < 0.9995; lambda += 0.005) {
    EXPECT_EQ(control::sweet_spot_capacity(lambda, /*c_max=*/64),
              analysis::suggest_capacity(lambda))
        << "lambda=" << lambda;
  }
}

TEST(Policy, SweetSpotClampsToRange) {
  EXPECT_EQ(control::sweet_spot_capacity(0.0, 8), 1u);
  EXPECT_EQ(control::sweet_spot_capacity(-0.5, 8), 1u);  // clamped input
  // λ → 1: raw capacity diverges but the clamp holds.
  EXPECT_EQ(control::sweet_spot_capacity(1.0, 3), 3u);
  EXPECT_EQ(control::sweet_spot_capacity(0.99999999, 2), 2u);
}

TEST(Policy, SweetSpotDeadBandSuppressesFlapping) {
  // λ = 0.9375 puts the raw sweet spot at √(ln 16) ≈ 1.665 → c* = 2.
  // From c = 2 the distance |1.665 − 2| = 0.335 is inside the 0.5 dead
  // band, so the policy holds; from c = 4 it moves.
  OnlineEstimator est(/*n=*/64, /*window=*/4);
  for (int r = 0; r < 4; ++r) est.observe(metrics(60, 0, 0, 0));
  PolicyState state;
  DecisionInput input;
  input.n = 64;
  input.c_max = 8;
  input.hysteresis = 0.1;
  input.current_capacity = 2;
  EXPECT_EQ(control::decide_capacity(Policy::kSweetSpot, est, input, state),
            2u);
  input.current_capacity = 4;
  EXPECT_EQ(control::decide_capacity(Policy::kSweetSpot, est, input, state),
            2u);
}

TEST(Policy, StaticNeverMoves) {
  OnlineEstimator est(/*n=*/64, /*window=*/2);
  for (int r = 0; r < 4; ++r) est.observe(metrics(64, 1000, 500, 10));
  PolicyState state;
  DecisionInput input;
  input.n = 64;
  input.c_max = 8;
  input.current_capacity = 3;
  EXPECT_EQ(control::decide_capacity(Policy::kStatic, est, input, state), 3u);
}

TEST(Policy, AimdGrowsOnBacklogGrowth) {
  // Pool grows by ~n/2 per round — far past the 1% threshold — so AIMD
  // must add a buffer slot regardless of wait history.
  OnlineEstimator est(/*n=*/64, /*window=*/4);
  for (std::uint64_t r = 0; r < 4; ++r) {
    est.observe(metrics(64, 1000 + 32 * r, 10, 10));
  }
  PolicyState state;
  DecisionInput input;
  input.n = 64;
  input.c_max = 8;
  input.current_capacity = 3;
  EXPECT_EQ(control::decide_capacity(Policy::kAimd, est, input, state), 4u);
  EXPECT_EQ(state.direction, 1);
  // And the clamp holds at the ceiling.
  input.current_capacity = 8;
  EXPECT_EQ(control::decide_capacity(Policy::kAimd, est, input, state), 8u);
}

TEST(Policy, ConfigValidation) {
  ControlConfig config;
  config.policy = Policy::kSweetSpot;
  EXPECT_NO_THROW(config.validate());
  config.c_max = 0;
  EXPECT_THROW(config.validate(), ContractViolation);
  config.c_max = 16;
  config.window = 0;
  EXPECT_THROW(config.validate(), ContractViolation);
  config.window = 64;
  config.hysteresis = 1.5;
  EXPECT_THROW(config.validate(), ContractViolation);
  config.hysteresis = 0.1;
  config.cooldown = 0;
  EXPECT_THROW(config.validate(), ContractViolation);
}

TEST(Policy, CappedConfigRejectsBadControlCombinations) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 32;
  config.lambda_n = 60;
  config.control.policy = Policy::kSweetSpot;
  config.control.c_max = 16;  // capacity 32 > c_max
  EXPECT_THROW(config.validate(), ContractViolation);
  config.capacity = 4;
  EXPECT_NO_THROW(config.validate());
  // Admission control needs a backpressure mode to act through.
  config.control.admission_target = 5;
  EXPECT_THROW(config.validate(), ContractViolation);
}

// -- controller ------------------------------------------------------

TEST(Controller, HoldsUntilWarmThenDecides) {
  ControlConfig config;
  config.policy = Policy::kSweetSpot;
  config.c_max = 8;
  config.window = 4;
  config.cooldown = 10;
  Controller controller(config, /*n=*/64, /*base_pool_limit=*/0);
  // λ = 62/64 ≈ 0.969 → c* = 2; but no decision before the window fills.
  for (std::uint64_t r = 1; r <= 3; ++r) {
    controller.observe(metrics(62, 0, 0, 0));
    EXPECT_FALSE(controller.decide(r + 1, 1, 0).has_value()) << r;
  }
  controller.observe(metrics(62, 0, 0, 0));
  const auto decision = controller.decide(5, 1, 0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->capacity, 2u);
  EXPECT_EQ(controller.changes_total(), 1u);
  EXPECT_EQ(controller.grows_total(), 1u);
  ASSERT_EQ(controller.decisions().size(), 1u);
  EXPECT_EQ(controller.decisions().front().round, 5u);
}

TEST(Controller, CooldownRateLimitsChanges) {
  ControlConfig config;
  config.policy = Policy::kSweetSpot;
  config.c_max = 8;
  config.window = 2;
  config.cooldown = 20;
  Controller controller(config, /*n=*/64, /*base_pool_limit=*/0);
  controller.observe(metrics(62, 0, 0, 0));
  controller.observe(metrics(62, 0, 0, 0));
  ASSERT_TRUE(controller.decide(3, 1, 0).has_value());  // 1 -> 2, arms 23
  // λ collapses; the target is 1 again, but the cooldown gates it.
  for (std::uint64_t r = 3; r < 22; ++r) {
    controller.observe(metrics(4, 0, 0, 0));
    EXPECT_FALSE(controller.decide(r + 1, 2, 0).has_value()) << r;
  }
  controller.observe(metrics(4, 0, 0, 0));
  const auto late = controller.decide(23, 2, 0);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->capacity, 1u);
  EXPECT_EQ(controller.shrinks_total(), 1u);
}

TEST(Controller, NoChangeDoesNotConsumeCooldown) {
  ControlConfig config;
  config.policy = Policy::kSweetSpot;
  config.c_max = 8;
  config.window = 2;
  config.cooldown = 50;
  Controller controller(config, /*n=*/64, /*base_pool_limit=*/0);
  controller.observe(metrics(62, 0, 0, 0));
  controller.observe(metrics(62, 0, 0, 0));
  // Already at the target: refusing to change is free, so a real change
  // right after must not be blocked by a phantom cooldown.
  EXPECT_FALSE(controller.decide(3, 2, 0).has_value());
  controller.observe(metrics(62, 0, 0, 0));
  const auto decision = controller.decide(4, 1, 0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->capacity, 2u);
}

TEST(Controller, StateRoundTripDecidesIdentically) {
  ControlConfig config;
  config.policy = Policy::kAimd;
  config.c_max = 8;
  config.window = 4;
  config.cooldown = 6;
  Controller a(config, /*n=*/64, /*base_pool_limit=*/0);
  std::uint32_t capacity = 2;
  for (std::uint64_t r = 1; r <= 30; ++r) {
    a.observe(metrics(60, 40 * r, 8 * r, 20));
    if (const auto d = a.decide(r + 1, capacity, 0)) capacity = d->capacity;
  }
  Controller b(config, /*n=*/64, /*base_pool_limit=*/0);
  b.restore(a.state());
  EXPECT_EQ(a.state(), b.state());
  std::uint32_t capacity_b = capacity;
  for (std::uint64_t r = 31; r <= 60; ++r) {
    const RoundMetrics m = metrics(60, 40 * r, 8 * r, 20);
    a.observe(m);
    b.observe(m);
    const auto da = a.decide(r + 1, capacity, 0);
    const auto db = b.decide(r + 1, capacity_b, 0);
    ASSERT_EQ(da.has_value(), db.has_value()) << r;
    if (da.has_value()) {
      EXPECT_EQ(da->capacity, db->capacity) << r;
      capacity = da->capacity;
      capacity_b = db->capacity;
    }
  }
  EXPECT_EQ(a.state(), b.state());
}

// -- auditor: dynamic-capacity invariant -----------------------------

CappedConfig audited_config(std::uint32_t capacity, std::uint32_t c_max) {
  CappedConfig config;
  config.n = 64;
  config.capacity = capacity;
  // λ = 1 with service failing half the time: deletions can't keep up,
  // so a deep pool builds and every bin saturates at its capacity.
  config.lambda_n = 64;
  config.failure_probability = 0.5;
  config.control.policy = Policy::kStatic;
  config.control.c_max = c_max;
  return config;
}

TEST(AuditorControl, HealthyAdaptiveShrinkPassesEveryRound) {
  // A real sweet-spot shrink: λ drops mid-run, capacity follows, and
  // the overfull bins drain monotonically — the auditor must stay green
  // at cadence 1 through the whole transition.
  CappedConfig config;
  config.n = 64;
  config.capacity = 4;
  config.lambda_n = 64;
  config.control.policy = Policy::kSweetSpot;
  config.control.c_max = 8;
  config.control.window = 16;
  config.control.cooldown = 8;
  Capped process(config, Engine(7));
  fault::InvariantAuditor auditor(/*cadence=*/1);
  for (int r = 0; r < 100; ++r) auditor.observe(process, process.step());
  process.set_lambda_n(20);
  for (int r = 0; r < 200; ++r) auditor.observe(process, process.step());
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front().detail;
  ASSERT_NE(process.controller(), nullptr);
}

TEST(AuditorControl, BrokenShrinkTripsCapacityDrain) {
  // Regression for the drain invariant: if a "shrink" lets an overfull
  // bin re-fill (here forced by flapping set_capacity between deep
  // audits), the bin's overfull load grows — which a correct drain can
  // never do — and the auditor must name capacity_drain.
  Capped process(audited_config(/*capacity=*/10, /*c_max=*/16), Engine(11));
  fault::InvariantAuditor auditor(/*cadence=*/3);
  const auto step = [&] { auditor.observe(process, process.step()); };
  while (process.round() < 30) step();  // bins saturate at load 10
  process.set_capacity(1);
  while (process.round() < 33) step();  // deep audit at 33: drained to 7
  ASSERT_TRUE(auditor.ok());
  process.set_capacity(10);
  while (process.round() < 35) step();  // bins silently re-fill
  process.set_capacity(1);
  while (process.round() < 36) step();  // deep audit at 36: 9 > 7
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations().front().invariant, "capacity_drain");
}

TEST(AuditorControl, SnapshotRestoreEnforcesTheCeiling) {
  // A snapshot whose queues exceed the capacity is only legitimate
  // mid-shrink, i.e. with control enabled and queues within c_max;
  // anything else is corrupt state and must be rejected on restore.
  Capped process(audited_config(/*capacity=*/10, /*c_max=*/16), Engine(13));
  while (process.round() < 30) (void)process.step();  // bins at load 10
  const core::CappedSnapshot snap = process.snapshot();

  core::CappedSnapshot mid_shrink = snap;
  mid_shrink.config.capacity = 4;  // shrink decided, bins still draining
  EXPECT_NO_THROW(Capped{mid_shrink});

  core::CappedSnapshot above_ceiling = snap;
  above_ceiling.config.capacity = 8;
  above_ceiling.config.control.c_max = 8;  // queues of 10 beat the clamp
  EXPECT_THROW(Capped{above_ceiling}, ContractViolation);

  core::CappedSnapshot no_control = snap;
  no_control.config.capacity = 4;
  no_control.config.control = control::ControlConfig{};  // disabled
  EXPECT_THROW(Capped{no_control}, ContractViolation);
}

}  // namespace
