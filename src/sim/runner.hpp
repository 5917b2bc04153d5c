// The experiment runner for processes a scenario::Scenario cannot
// express — the non-CAPPED baselines, and CAPPED under a d-choice
// sampler, per-bin capacities, ablated disciplines, per-round failures
// or ball tracing: burn the process in for a fixed number of rounds,
// then measure a window of rounds, aggregating the observables of the
// paper's Section V — normalized pool size, average and maximum waiting
// time. Plain CAPPED runs go through scenario::run_scenario.
#pragma once

#include <chrono>
#include <cstdint>

#include "core/process.hpp"
#include "stats/summary.hpp"
#include "telemetry/ball_trace.hpp"
#include "telemetry/registry.hpp"

namespace iba::sim {

/// Measurement protocol, decoupled from system geometry so the same spec
/// can drive any process.
struct RunSpec {
  std::uint64_t burn_in = 0;  ///< burn-in rounds
  std::uint64_t measure_rounds = 1000;
};

/// Aggregated outcome of one (burn-in + measurement) run.
struct RunResult {
  std::uint64_t burn_in_used = 0;
  std::uint64_t measured_rounds = 0;

  stats::Summary pool;             ///< per-round pool size
  stats::Summary normalized_pool;  ///< pool / n (the paper's y-axis)
  stats::Summary max_load;         ///< per-round maximum bin load
  stats::Summary system_load;      ///< pool + in-bin balls, per round

  double wait_mean = 0.0;   ///< mean waiting time over measured deletions
  std::uint64_t wait_max = 0;
  double wait_p99_upper = 0.0;  ///< dyadic upper bound on the p99
  std::uint64_t deletions = 0;

  double rounds_per_second = 0.0;
};

/// Optional observation hooks for run_experiment. Both pointers may be
/// null. The registry receives only simulation-deterministic values
/// (counts, loads, waits) — never wall-clock — so the same seed exports
/// the same bytes.
struct RunTelemetry {
  telemetry::Registry* registry = nullptr;
  /// Per-ball span tracing (processes supporting set_ball_tracer only).
  /// The tracer observes the whole run; its buffered spans and wait-split
  /// histograms are cleared after burn-in so, like the wait statistics,
  /// they describe the stabilized system. Aggregates land in `registry`
  /// under the span_* names.
  telemetry::BallTracer* ball_trace = nullptr;
};

namespace detail {

/// Resolves registry handles once so the measurement loop pays one
/// integer add per instrument per round. Null registry → inert.
class RoundRecorder {
 public:
  explicit RoundRecorder(telemetry::Registry* registry) {
    if (registry == nullptr) return;
    rounds_ = &registry->counter("rounds_total");
    generated_ = &registry->counter("balls_generated_total");
    thrown_ = &registry->counter("balls_thrown_total");
    accepted_ = &registry->counter("balls_accepted_total");
    deleted_ = &registry->counter("balls_deleted_total");
    requeued_ = &registry->counter("balls_requeued_total");
    pool_gauge_ = &registry->gauge("pool_size");
    max_load_gauge_ = &registry->gauge("max_load");
    total_load_gauge_ = &registry->gauge("total_load");
    pool_hist_ = &registry->histogram("pool_size_rounds");
  }

  void observe(const core::RoundMetrics& m) noexcept {
    if (rounds_ == nullptr) return;
    rounds_->inc();
    generated_->inc(m.generated);
    thrown_->inc(m.thrown);
    accepted_->inc(m.accepted);
    deleted_->inc(m.deleted);
    requeued_->inc(m.requeued);
    pool_gauge_->set(static_cast<double>(m.pool_size));
    max_load_gauge_->set(static_cast<double>(m.max_load));
    total_load_gauge_->set(static_cast<double>(m.total_load));
    pool_hist_->observe(m.pool_size);
  }

 private:
  telemetry::Counter* rounds_ = nullptr;
  telemetry::Counter* generated_ = nullptr;
  telemetry::Counter* thrown_ = nullptr;
  telemetry::Counter* accepted_ = nullptr;
  telemetry::Counter* deleted_ = nullptr;
  telemetry::Counter* requeued_ = nullptr;
  telemetry::Gauge* pool_gauge_ = nullptr;
  telemetry::Gauge* max_load_gauge_ = nullptr;
  telemetry::Gauge* total_load_gauge_ = nullptr;
  telemetry::DyadicHistogram* pool_hist_ = nullptr;
};

}  // namespace detail

/// Burn-in + measurement over any AllocationProcess. Wait statistics are
/// reset after burn-in when the process supports it, so the reported
/// waiting times describe the stabilized system only.
template <core::AllocationProcess P>
RunResult run_experiment(P& process, const RunSpec& spec,
                         RunTelemetry telemetry = {}) {
  RunResult result;

  if constexpr (requires { process.set_ball_tracer(telemetry.ball_trace); }) {
    process.set_ball_tracer(telemetry.ball_trace);
  }

  for (std::uint64_t i = 0; i < spec.burn_in; ++i) (void)process.step();
  result.burn_in_used = spec.burn_in;

  if constexpr (requires { process.reset_wait_stats(); }) {
    process.reset_wait_stats();
  }
  if (telemetry.ball_trace != nullptr) {
    telemetry.ball_trace->clear_completed();  // spans of the burn-in phase
  }

  // Measurement window.
  detail::RoundRecorder recorder(telemetry.registry);
  double wait_sum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < spec.measure_rounds; ++i) {
    const auto m = process.step();
    result.pool.add(static_cast<double>(m.pool_size));
    result.normalized_pool.add(static_cast<double>(m.pool_size) /
                               static_cast<double>(process.n()));
    result.max_load.add(static_cast<double>(m.max_load));
    result.system_load.add(static_cast<double>(m.pool_size + m.total_load));
    result.deletions += m.wait_count;
    wait_sum += m.wait_sum;
    if (m.wait_max > result.wait_max) result.wait_max = m.wait_max;
    recorder.observe(m);
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  result.measured_rounds = spec.measure_rounds;
  if (result.deletions > 0) {
    result.wait_mean = wait_sum / static_cast<double>(result.deletions);
  }
  if constexpr (requires { process.waits(); }) {
    result.wait_p99_upper =
        static_cast<double>(process.waits().quantile_upper_bound(0.99));
  }
  if (elapsed > 0) {
    result.rounds_per_second =
        static_cast<double>(spec.measure_rounds) / elapsed;
  }

  if (telemetry.registry != nullptr) {
    telemetry.registry->counter("runs_total").inc();
    telemetry.registry->gauge("burn_in_rounds")
        .set(static_cast<double>(result.burn_in_used));
    if constexpr (requires { process.waits(); }) {
      telemetry.registry->histogram("wait_rounds")
          .merge_log2(process.waits().histogram(), wait_sum);
    }
    if (telemetry.ball_trace != nullptr) {
      telemetry::record_ball_trace(*telemetry.registry,
                                   *telemetry.ball_trace);
    }
  }
  if constexpr (requires { process.set_ball_tracer(nullptr); }) {
    process.set_ball_tracer(nullptr);  // tracer may not outlive the process
  }
  return result;
}

}  // namespace iba::sim
