// End-to-end telemetry wiring: run_experiment populating a registry with
// conserved flow counters and byte-identical exports for the same seed,
// the round trace capturing measured rounds, and phase timers splitting
// real step time.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/capped.hpp"
#include "sim/runner.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace iba;

#if IBA_TELEMETRY_ENABLED

sim::SimConfig small_config(std::uint64_t seed) {
  sim::SimConfig config;
  config.n = 256;
  config.capacity = 2;
  config.lambda_n = 224;  // λ = 7/8
  config.burn_in = 200;
  config.auto_burn_in = false;
  config.measure_rounds = 300;
  config.seed = seed;
  return config;
}

TEST(SimTelemetry, RegistryCountersMatchRunResult) {
  const auto config = small_config(11);
  telemetry::Registry registry;
  sim::RunTelemetry hooks;
  hooks.registry = &registry;
  const auto result =
      sim::run_capped(config, sim::RunSpec::from_config(config), hooks);

  EXPECT_EQ(registry.counter("rounds_total").value(), config.measure_rounds);
  EXPECT_EQ(registry.counter("runs_total").value(), 1u);
  EXPECT_EQ(registry.counter("balls_deleted_total").value(),
            result.deletions);
  // Flow conservation over the measured window: every thrown ball was
  // either accepted or stayed in the pool (requeues re-enter the pool).
  EXPECT_GT(registry.counter("balls_thrown_total").value(), 0u);
  EXPECT_GE(registry.counter("balls_thrown_total").value(),
            registry.counter("balls_accepted_total").value());
  // The wait histogram covers exactly the measured deletions.
  EXPECT_EQ(registry.histogram("wait_rounds").count(), result.deletions);
  const double wait_sum = registry.histogram("wait_rounds").sum();
  EXPECT_NEAR(wait_sum,
              result.wait_mean * static_cast<double>(result.deletions),
              1e-6 * (1.0 + wait_sum));
}

TEST(SimTelemetry, SameSeedSameRegistryBytes) {
  const auto config = small_config(42);
  std::string exports[2];
  for (auto& text : exports) {
    telemetry::Registry registry;
    sim::RunTelemetry hooks;
    hooks.registry = &registry;
    (void)sim::run_capped(config, sim::RunSpec::from_config(config), hooks);
    std::ostringstream out;
    telemetry::write_prometheus(registry, out);
    text = out.str();
  }
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(SimTelemetry, RoundTraceCapturesMeasuredRounds) {
  const auto config = small_config(7);
  telemetry::RoundTrace trace(1u << 10);  // larger than measure_rounds
  sim::RunTelemetry hooks;
  hooks.trace = &trace;
  (void)sim::run_capped(config, sim::RunSpec::from_config(config), hooks);

  EXPECT_EQ(trace.size(), config.measure_rounds);
  EXPECT_EQ(trace.dropped(), 0u);
  telemetry::RoundEvent event;
  ASSERT_TRUE(trace.try_pop(event));
  // First traced round follows the burn-in.
  EXPECT_EQ(event.metrics.round, config.burn_in + 1);
  EXPECT_GT(event.step_ns, 0u);
}

TEST(SimTelemetry, RoundTraceDropsInsteadOfGrowing) {
  const auto config = small_config(7);
  telemetry::RoundTrace trace(64);  // much smaller than measure_rounds
  sim::RunTelemetry hooks;
  hooks.trace = &trace;
  (void)sim::run_capped(config, sim::RunSpec::from_config(config), hooks);
  EXPECT_LE(trace.size(), trace.capacity());
  EXPECT_EQ(trace.size() + trace.dropped(), config.measure_rounds);
}

TEST(SimTelemetry, PhaseTimersSplitStepTime) {
  const auto config = small_config(3);
  telemetry::PhaseTimers timers;
  sim::RunTelemetry hooks;
  hooks.timers = &timers;
  (void)sim::run_capped(config, sim::RunSpec::from_config(config), hooks);

  using telemetry::Phase;
  // Burn-in and measurement each ran rounds.
  EXPECT_EQ(timers.calls(Phase::kBurnIn), 1u);
  EXPECT_EQ(timers.calls(Phase::kMeasure), 1u);
  EXPECT_GT(timers.ns(Phase::kMeasure), 0u);
  // The process-internal phases saw one call per round (burn-in and
  // measured) and real time.
  const std::uint64_t total_rounds = config.burn_in + config.measure_rounds;
  EXPECT_EQ(timers.calls(Phase::kThrow), total_rounds);
  EXPECT_EQ(timers.calls(Phase::kAccept), total_rounds);
  EXPECT_EQ(timers.calls(Phase::kDelete), total_rounds);
  EXPECT_GT(timers.balls(Phase::kThrow), 0u);
  EXPECT_GT(timers.ns_per_ball(Phase::kAccept), 0.0);
  // The inner phases are contained in burn-in + measure.
  EXPECT_LE(timers.ns(Phase::kThrow) + timers.ns(Phase::kAccept) +
                timers.ns(Phase::kDelete),
            timers.ns(Phase::kBurnIn) + timers.ns(Phase::kMeasure));
}

#endif  // IBA_TELEMETRY_ENABLED

}  // namespace
