// End-to-end telemetry wiring: run_experiment populating a registry with
// conserved flow counters and byte-identical exports for the same seed,
// and phase timers attached to a Capped splitting real step time.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>

#include "core/capped.hpp"
#include "sim/runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/phase_timers.hpp"

namespace {

using namespace iba;

core::CappedConfig small_config() {
  core::CappedConfig config;
  config.n = 256;
  config.capacity = 2;
  config.lambda_n = 224;  // λ = 7/8
  return config;
}

constexpr sim::RunSpec kSpec{.burn_in = 200, .measure_rounds = 300};

TEST(SimTelemetry, RegistryCountersMatchRunResult) {
  core::Capped process(small_config(), core::Engine(11));
  telemetry::Registry registry;
  const auto result =
      sim::run_experiment(process, kSpec, {.registry = &registry});

  EXPECT_EQ(registry.counter("rounds_total").value(), kSpec.measure_rounds);
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
  std::string exports[2];
  for (auto& text : exports) {
    core::Capped process(small_config(), core::Engine(42));
    telemetry::Registry registry;
    (void)sim::run_experiment(process, kSpec, {.registry = &registry});
    std::ostringstream out;
    telemetry::write_prometheus(registry, out);
    text = out.str();
  }
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(SimTelemetry, PhaseTimersSplitStepTime) {
  core::Capped process(small_config(), core::Engine(3));
  telemetry::PhaseTimers timers;
  process.set_phase_timers(&timers);
  constexpr std::uint64_t kRounds = 500;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    (void)process.step();
  }
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  process.set_phase_timers(nullptr);

  using telemetry::Phase;
  // The process-internal phases saw one call per round and real time.
  EXPECT_EQ(timers.calls(Phase::kThrow), kRounds);
  EXPECT_EQ(timers.calls(Phase::kAccept), kRounds);
  EXPECT_EQ(timers.calls(Phase::kDelete), kRounds);
  EXPECT_GT(timers.balls(Phase::kThrow), 0u);
  EXPECT_GT(timers.ns_per_ball(Phase::kAccept), 0.0);
  // The inner phases are contained in the rounds' wall time.
  EXPECT_LE(timers.ns(Phase::kThrow) + timers.ns(Phase::kAccept) +
                timers.ns(Phase::kDelete),
            wall_ns);
}

}  // namespace
