// Differential tests of the round kernels: the scalar ball-at-a-time
// path, the fused bin-major sweep, and its sharded execution
// (2 / 4 / 7 / 8 shards) must produce byte-identical trajectories — every
// RoundMetrics field, the waiting-time statistics (including the
// order-sensitive Welford moments), snapshots (pool, bin queues, engine
// state), ball-trace span streams, snapshot-resume behaviour and
// step_with_choices — across deletion disciplines, acceptance orders,
// arrival models, crash-requeue failures, per-bin capacities and the
// d-choice sampler — and are unchanged by the run-time instruments. The
// range draw (draw_slice) must keep exactly a serial draw's in-range
// choices, for any range.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "core/range_kernel.hpp"
#include "fault/fault_plan.hpp"
#include "fault/schedule.hpp"
#include "rng/bounded.hpp"
#include "rng/simd.hpp"
#include "rng/xoshiro256.hpp"
#include "scenario/arrival.hpp"
#include "telemetry/ball_trace.hpp"
#include "telemetry/export.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/timeseries.hpp"

namespace {

using iba::core::AcceptanceOrder;
using iba::core::ArrivalModel;
using iba::core::Capped;
using iba::core::CappedConfig;
using iba::core::CappedSnapshot;
using iba::core::DeletionDiscipline;
using iba::core::Engine;
using iba::core::FailureMode;
using iba::core::RoundKernel;
using iba::core::RoundMetrics;
using iba::rng::SimdBackend;

struct Scenario {
  const char* name;
  CappedConfig config;
};

CappedConfig base_config() {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 60;
  return config;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;
  all.push_back({"base_fifo_oldest", base_config()});
  {
    auto c = base_config();
    c.deletion = DeletionDiscipline::kLifo;
    all.push_back({"lifo", c});
  }
  {
    auto c = base_config();
    c.deletion = DeletionDiscipline::kUniform;
    all.push_back({"uniform_deletion", c});
  }
  {
    auto c = base_config();
    c.acceptance = AcceptanceOrder::kYoungestFirst;
    all.push_back({"youngest_first", c});
  }
  {
    auto c = base_config();
    c.arrival = ArrivalModel::kBinomial;
    all.push_back({"binomial_arrivals", c});
  }
  {
    auto c = base_config();
    c.arrival = ArrivalModel::kPoisson;
    all.push_back({"poisson_arrivals", c});
  }
  {
    auto c = base_config();
    c.failure_probability = 0.2;
    all.push_back({"failures_skip", c});
  }
  {
    auto c = base_config();
    c.failure_probability = 0.2;
    c.failure_mode = FailureMode::kCrashRequeue;
    c.deletion = DeletionDiscipline::kUniform;
    all.push_back({"failures_crash_requeue", c});
  }
  {
    auto c = base_config();
    c.capacity = 1;
    c.lambda_n = 64;  // λ = 1, maximal pool pressure
    all.push_back({"c1_lambda1", c});
  }
  {
    auto c = base_config();
    c.n = 97;  // prime: 7 shards get uneven ranges
    c.capacity = 3;
    c.lambda_n = 90;
    all.push_back({"prime_n", c});
  }
  return all;
}

CappedConfig with_kernel(CappedConfig config, RoundKernel kernel,
                         std::uint32_t shards) {
  config.kernel = kernel;
  config.shards = shards;
  return config;
}

struct Variant {
  const char* name;
  RoundKernel kernel;
  std::uint32_t shards;
};

CappedConfig with_variant(CappedConfig config, const Variant& variant) {
  return with_kernel(config, variant.kernel, variant.shards);
}

constexpr Variant kVariants[] = {
    {"scalar", RoundKernel::kScalar, 1},
    {"bin_major", RoundKernel::kBinMajor, 1},
    {"bin_major_2", RoundKernel::kBinMajor, 2},
    {"bin_major_4", RoundKernel::kBinMajor, 4},
    {"bin_major_7", RoundKernel::kBinMajor, 7},
    {"bin_major_8", RoundKernel::kBinMajor, 8},
};

/// Everything observable from one run, for exact comparison.
struct RunCapture {
  std::vector<RoundMetrics> metrics;
  CappedSnapshot snapshot;
  std::uint64_t wait_count = 0;
  double wait_mean = 0.0;
  double wait_stddev = 0.0;
  std::uint64_t wait_max = 0;
  std::uint64_t wait_q99 = 0;
  std::string spans;
};

/// Steps `process` for `rounds` rounds and captures everything but spans.
RunCapture step_and_capture(Capped& process, std::uint64_t rounds) {
  RunCapture capture;
  capture.metrics.reserve(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    capture.metrics.push_back(process.step());
  }
  capture.snapshot = process.snapshot();
  capture.wait_count = process.waits().count();
  capture.wait_mean = process.waits().mean();
  capture.wait_stddev = process.waits().stddev();
  capture.wait_max = process.waits().max();
  capture.wait_q99 = process.waits().quantile_upper_bound(0.99);
  return capture;
}

RunCapture run(const CappedConfig& config, std::uint64_t seed,
               std::uint64_t rounds, bool trace) {
  Capped process(config, Engine(seed));
  iba::telemetry::BallTraceConfig trace_config;
  trace_config.seed = seed;
  trace_config.sample_rate = 1.0;
  trace_config.completed_capacity = 1u << 20;
  iba::telemetry::BallTracer tracer(trace_config);
  if (trace) process.set_ball_tracer(&tracer);

  RunCapture capture = step_and_capture(process, rounds);
  if (trace) {
    std::ostringstream out;
    for (const auto& span : tracer.completed()) {
      iba::telemetry::write_span_json(span, out);
    }
    capture.spans = out.str();
  }
  return capture;
}

void expect_metrics_eq(const RoundMetrics& a, const RoundMetrics& b,
                       const char* variant, std::uint64_t round) {
  EXPECT_EQ(a.round, b.round) << variant << " round " << round;
  EXPECT_EQ(a.generated, b.generated) << variant << " round " << round;
  EXPECT_EQ(a.thrown, b.thrown) << variant << " round " << round;
  EXPECT_EQ(a.accepted, b.accepted) << variant << " round " << round;
  EXPECT_EQ(a.deleted, b.deleted) << variant << " round " << round;
  EXPECT_EQ(a.pool_size, b.pool_size) << variant << " round " << round;
  EXPECT_EQ(a.total_load, b.total_load) << variant << " round " << round;
  EXPECT_EQ(a.max_load, b.max_load) << variant << " round " << round;
  EXPECT_EQ(a.empty_bins, b.empty_bins) << variant << " round " << round;
  EXPECT_EQ(a.wait_count, b.wait_count) << variant << " round " << round;
  EXPECT_EQ(a.wait_sum, b.wait_sum) << variant << " round " << round;
  EXPECT_EQ(a.wait_max, b.wait_max) << variant << " round " << round;
  EXPECT_EQ(a.requeued, b.requeued) << variant << " round " << round;
  EXPECT_EQ(a.oldest_pool_age, b.oldest_pool_age)
      << variant << " round " << round;
  EXPECT_EQ(a.shed, b.shed) << variant << " round " << round;
  EXPECT_EQ(a.deferred, b.deferred) << variant << " round " << round;
  EXPECT_EQ(a.faulted_bins, b.faulted_bins) << variant << " round " << round;
}

void expect_snapshot_eq(const CappedSnapshot& a, const CappedSnapshot& b,
                        const char* variant) {
  EXPECT_EQ(a.round, b.round) << variant;
  EXPECT_EQ(a.generated_total, b.generated_total) << variant;
  EXPECT_EQ(a.deleted_total, b.deleted_total) << variant;
  EXPECT_EQ(a.engine_state, b.engine_state) << variant;
  ASSERT_EQ(a.pool.size(), b.pool.size()) << variant;
  for (std::size_t i = 0; i < a.pool.size(); ++i) {
    EXPECT_EQ(a.pool[i].label, b.pool[i].label) << variant << " bucket " << i;
    EXPECT_EQ(a.pool[i].count, b.pool[i].count) << variant << " bucket " << i;
  }
  EXPECT_EQ(a.bins, b.bins) << variant;
  EXPECT_EQ(a.shed_total, b.shed_total) << variant;
  ASSERT_EQ(a.deferred.size(), b.deferred.size()) << variant;
  for (std::size_t i = 0; i < a.deferred.size(); ++i) {
    EXPECT_EQ(a.deferred[i].label, b.deferred[i].label) << variant;
    EXPECT_EQ(a.deferred[i].count, b.deferred[i].count) << variant;
    EXPECT_EQ(a.deferred[i].ready, b.deferred[i].ready) << variant;
  }
  EXPECT_EQ(a.waits.count, b.waits.count) << variant;
  EXPECT_EQ(a.waits.sum, b.waits.sum) << variant;
  EXPECT_EQ(a.waits.sumsq_hi, b.waits.sumsq_hi) << variant;
  EXPECT_EQ(a.waits.sumsq_lo, b.waits.sumsq_lo) << variant;
  EXPECT_EQ(a.waits.max, b.waits.max) << variant;
  EXPECT_EQ(a.waits.histogram, b.waits.histogram) << variant;
  EXPECT_TRUE(a.controller == b.controller)
      << variant << " controller state diverged";
}

constexpr std::uint64_t kRounds = 250;
constexpr std::uint64_t kSeed = 20210705;

TEST(KernelDifferential, AllVariantsMatchScalarEverywhere) {
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    const RunCapture reference = run(
        with_kernel(scenario.config, RoundKernel::kScalar, 1), kSeed,
        kRounds, /*trace=*/false);
    ASSERT_EQ(reference.metrics.size(), kRounds);
    for (std::size_t v = 1; v < std::size(kVariants); ++v) {
      const Variant& variant = kVariants[v];
      const RunCapture capture =
          run(with_variant(scenario.config, variant),
              kSeed, kRounds, /*trace=*/false);
      ASSERT_EQ(capture.metrics.size(), kRounds);
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        expect_metrics_eq(reference.metrics[r], capture.metrics[r],
                          variant.name, r);
      }
      expect_snapshot_eq(reference.snapshot, capture.snapshot, variant.name);
      // Wait statistics must match bit for bit: the sharded sweep records
      // waits into per-shard recorders merged after the round.
      EXPECT_EQ(reference.wait_count, capture.wait_count) << variant.name;
      EXPECT_EQ(reference.wait_mean, capture.wait_mean) << variant.name;
      EXPECT_EQ(reference.wait_stddev, capture.wait_stddev) << variant.name;
      EXPECT_EQ(reference.wait_max, capture.wait_max) << variant.name;
      EXPECT_EQ(reference.wait_q99, capture.wait_q99) << variant.name;
    }
  }
}

TEST(KernelDifferential, SpanStreamsAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    const RunCapture reference = run(
        with_kernel(scenario.config, RoundKernel::kScalar, 1), kSeed,
        kRounds, /*trace=*/true);
    ASSERT_FALSE(reference.spans.empty());
    for (std::size_t v = 1; v < std::size(kVariants); ++v) {
      const Variant& variant = kVariants[v];
      const RunCapture capture =
          run(with_variant(scenario.config, variant),
              kSeed, kRounds, /*trace=*/true);
      EXPECT_EQ(reference.spans, capture.spans)
          << variant.name << " on " << scenario.name;
    }
  }
}

TEST(KernelDifferential, SnapshotResumeCrossesKernels) {
  // A snapshot taken from a sharded bin-major run, resumed on the scalar
  // kernel, must continue exactly like the uninterrupted sharded run.
  const CappedConfig sharded =
      with_kernel(base_config(), RoundKernel::kBinMajor, 7);
  Capped original(sharded, Engine(kSeed));
  for (int r = 0; r < 120; ++r) (void)original.step();
  CappedSnapshot snap = original.snapshot();
  snap.config.kernel = RoundKernel::kScalar;
  snap.config.shards = 1;
  Capped resumed(snap);
  for (int r = 0; r < 120; ++r) {
    const RoundMetrics a = original.step();
    const RoundMetrics b = resumed.step();
    expect_metrics_eq(a, b, "resumed_scalar", a.round);
  }
  expect_snapshot_eq(original.snapshot(), resumed.snapshot(),
                     "resumed_scalar");
}

TEST(KernelDifferential, StepWithChoicesMatchesAcrossKernels) {
  // Caller-supplied choices (the MODCAPPED coupling path) hit the same
  // kernels; all variants must agree ball for ball.
  const CappedConfig config = base_config();
  std::vector<Capped> variants;
  for (const Variant& variant : kVariants) {
    variants.emplace_back(
        with_variant(config, variant), Engine(kSeed));
  }
  Engine choice_engine(99);
  std::vector<std::uint32_t> choices;
  for (int r = 0; r < 200; ++r) {
    const std::uint64_t nu = variants.front().balls_to_throw();
    choices.resize(nu);
    for (auto& c : choices) c = iba::rng::bounded32(choice_engine, config.n);
    const RoundMetrics reference = variants.front().step_with_choices(choices);
    for (std::size_t v = 1; v < variants.size(); ++v) {
      const RoundMetrics m = variants[v].step_with_choices(choices);
      expect_metrics_eq(reference, m, kVariants[v].name, reference.round);
    }
  }
  for (std::size_t v = 1; v < variants.size(); ++v) {
    expect_snapshot_eq(variants.front().snapshot(), variants[v].snapshot(),
                       kVariants[v].name);
  }
}

TEST(KernelDifferential, ShardsBeyondBinsAreHarmless) {
  // More shards than bins: trailing ranges are empty; results unchanged.
  CappedConfig tiny = base_config();
  tiny.n = 5;
  tiny.lambda_n = 4;
  const RunCapture reference =
      run(with_kernel(tiny, RoundKernel::kScalar, 1), kSeed, 150, false);
  const RunCapture wide =
      run(with_kernel(tiny, RoundKernel::kBinMajor, 7), kSeed, 150, false);
  for (std::uint64_t r = 0; r < 150; ++r) {
    expect_metrics_eq(reference.metrics[r], wide.metrics[r], "wide", r);
  }
  expect_snapshot_eq(reference.snapshot, wide.snapshot, "wide");
}

// -- fault injection: every kernel variant must honor an identical
// FaultPlan byte for byte, across every failure mode -----------------

constexpr const char* kFaultSchedules[] = {
    "crash@10:bins=0-15,down=8",
    "crash@10:bins=0-15,down=3-30,retain",
    "crash-fullest@20:k=9,down=5-15",
    "degrade@5:bins=8-40,cap=1,for=60",
    "straggle:bins=3+17-25,period=3,phase=1",
    "random-crash:p=0.01,down=4-12",
    "random-crash:p=0.01,down=6,retain,from=30,until=120",
    "rolling@15:width=10,gap=12,count=5,down=10",
    // everything at once: outages, degradation, stragglers, coins
    "crash@10:bins=0-7,down=40;degrade@20:bins=30-60,cap=1,for=80;"
    "straggle:bins=61-63,period=2;random-crash:p=0.005,down=3-9",
};

RunCapture run_with_faults(const CappedConfig& config, const char* schedule,
                           std::uint64_t seed, std::uint64_t rounds) {
  Capped process(config, Engine(seed));
  iba::fault::FaultPlan plan(iba::fault::parse_schedule(schedule), config.n,
                             config.capacity, seed + 7);
  process.set_fault_plan(&plan);
  return step_and_capture(process, rounds);
}

TEST(FaultDifferential, AllVariantsMatchScalarUnderEverySchedule) {
  // Fault schedules cross every failure-mode scenario: the fault checks
  // must precede the failure coins in every kernel, or streams diverge.
  std::vector<Scenario> faulty;
  faulty.push_back({"base", base_config()});
  {
    auto c = base_config();
    c.failure_probability = 0.2;
    faulty.push_back({"failures_skip", c});
  }
  {
    auto c = base_config();
    c.failure_probability = 0.2;
    c.failure_mode = FailureMode::kCrashRequeue;
    faulty.push_back({"failures_crash_requeue", c});
  }
  {
    auto c = base_config();
    c.deletion = DeletionDiscipline::kUniform;
    faulty.push_back({"uniform_deletion", c});
  }
  for (const Scenario& scenario : faulty) {
    for (const char* schedule : kFaultSchedules) {
      SCOPED_TRACE(std::string(scenario.name) + " / " + schedule);
      const RunCapture reference = run_with_faults(
          with_kernel(scenario.config, RoundKernel::kScalar, 1), schedule,
          kSeed, kRounds);
      // Faults actually fire: at least one round reports faulted bins
      // (degrade-only schedules report 0 — they never stop service).
      for (std::size_t v = 1; v < std::size(kVariants); ++v) {
        const Variant& variant = kVariants[v];
        const RunCapture capture = run_with_faults(
            with_variant(scenario.config, variant),
            schedule, kSeed, kRounds);
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          expect_metrics_eq(reference.metrics[r], capture.metrics[r],
                            variant.name, r);
        }
        expect_snapshot_eq(reference.snapshot, capture.snapshot,
                           variant.name);
        EXPECT_EQ(reference.wait_stddev, capture.wait_stddev) << variant.name;
      }
    }
  }
}

TEST(FaultDifferential, EmptyPlanLeavesTrajectoryUntouched) {
  // A plan whose events never fire must not perturb the allocation RNG:
  // the trajectory equals a run with no plan attached at all.
  const CappedConfig config = base_config();
  const RunCapture bare =
      run(config, kSeed, kRounds, /*trace=*/false);
  const RunCapture planned = run_with_faults(
      config, "crash@100000:bins=0-3,down=5", kSeed, kRounds);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    expect_metrics_eq(bare.metrics[r], planned.metrics[r], "empty_plan", r);
  }
  expect_snapshot_eq(bare.snapshot, planned.snapshot, "empty_plan");
}

TEST(FaultDifferential, KillAndResumeReproducesUninterruptedRun) {
  // Snapshot process + plan state mid-outage, rebuild both, continue:
  // byte-identical to the uninterrupted run — including on a different
  // kernel and shard count.
  const char* schedule =
      "crash@100:bins=0-31,down=30-60;random-crash:p=0.01,down=10-20;"
      "degrade@110:bins=40-50,cap=1,for=100";
  const CappedConfig config =
      with_kernel(base_config(), RoundKernel::kBinMajor, 2);

  Capped uninterrupted(config, Engine(kSeed));
  iba::fault::FaultPlan plan(iba::fault::parse_schedule(schedule), config.n,
                             config.capacity, 99);
  uninterrupted.set_fault_plan(&plan);
  for (int r = 0; r < 120; ++r) (void)uninterrupted.step();  // mid-outage

  CappedSnapshot snap = uninterrupted.snapshot();
  const iba::fault::FaultPlan::State plan_state = plan.state();
  EXPECT_GT(plan.down_bins(), 0u) << "checkpoint should be mid-outage";

  snap.config.kernel = RoundKernel::kScalar;
  snap.config.shards = 1;
  Capped resumed(snap);
  iba::fault::FaultPlan resumed_plan(iba::fault::parse_schedule(schedule),
                                     config.n, config.capacity, 99);
  resumed_plan.restore(plan_state);
  resumed.set_fault_plan(&resumed_plan);

  for (int r = 0; r < 150; ++r) {
    const RoundMetrics a = uninterrupted.step();
    const RoundMetrics b = resumed.step();
    expect_metrics_eq(a, b, "fault_resume", a.round);
  }
  expect_snapshot_eq(uninterrupted.snapshot(), resumed.snapshot(),
                     "fault_resume");
  EXPECT_EQ(plan.crashes_total(), resumed_plan.crashes_total());
  EXPECT_EQ(plan.repairs_total(), resumed_plan.repairs_total());
}

// -- adaptive control: the controller actuates at round boundaries from
// kernel-independent estimator state, so controller-driven capacity
// changes (including mid-run shrinks and their multi-round drains) must
// keep every kernel variant byte-identical --------------------------

/// λ-drop scenario: saturated (λ = 1) long enough for the sweet spot to
/// grow the buffer, then a collapse to λ ≈ 0.31 that forces a shrink
/// with bins draining from well above the new capacity.
CappedConfig control_config(iba::control::Policy policy) {
  CappedConfig config = base_config();
  config.capacity = 2;
  config.lambda_n = 64;
  config.control.policy = policy;
  config.control.c_max = 8;
  config.control.window = 16;
  config.control.cooldown = 8;
  return config;
}

RunCapture run_lambda_drop(const CappedConfig& config, std::uint64_t seed,
                           std::uint64_t rounds) {
  Capped process(config, Engine(seed));
  RunCapture capture;
  capture.metrics.reserve(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    if (process.round() + 1 == 100) process.set_lambda_n(20);
    capture.metrics.push_back(process.step());
  }
  capture.snapshot = process.snapshot();
  capture.wait_count = process.waits().count();
  capture.wait_mean = process.waits().mean();
  capture.wait_stddev = process.waits().stddev();
  capture.wait_max = process.waits().max();
  capture.wait_q99 = process.waits().quantile_upper_bound(0.99);
  return capture;
}

TEST(ControlDifferential, AllVariantsMatchScalarUnderEveryPolicy) {
  for (const iba::control::Policy policy :
       {iba::control::Policy::kStatic, iba::control::Policy::kSweetSpot,
        iba::control::Policy::kAimd}) {
    SCOPED_TRACE(std::string("policy=") +
                 std::string(iba::control::to_string(policy)));
    const CappedConfig config = control_config(policy);
    const RunCapture reference = run_lambda_drop(
        with_kernel(config, RoundKernel::kScalar, 1), kSeed, kRounds);
    for (std::size_t v = 1; v < std::size(kVariants); ++v) {
      const Variant& variant = kVariants[v];
      const RunCapture capture = run_lambda_drop(
          with_variant(config, variant), kSeed,
          kRounds);
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        expect_metrics_eq(reference.metrics[r], capture.metrics[r],
                          variant.name, r);
      }
      expect_snapshot_eq(reference.snapshot, capture.snapshot, variant.name);
      EXPECT_EQ(reference.wait_stddev, capture.wait_stddev) << variant.name;
    }
  }
}

TEST(ControlDifferential, StaticControlIsInert) {
  // --control static must not perturb the trajectory at all: byte
  // identity against a run with the control plane disabled, on every
  // kernel (the golden-regression suite relies on this).
  for (const Variant& variant : kVariants) {
    SCOPED_TRACE(variant.name);
    CappedConfig off = with_kernel(base_config(), variant.kernel,
                                   variant.shards);
    CappedConfig on = off;
    on.control.policy = iba::control::Policy::kStatic;
    const RunCapture bare = run(off, kSeed, kRounds, /*trace=*/false);
    const RunCapture controlled = run(on, kSeed, kRounds, /*trace=*/false);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      expect_metrics_eq(bare.metrics[r], controlled.metrics[r], variant.name,
                        r);
    }
    EXPECT_EQ(bare.snapshot.engine_state, controlled.snapshot.engine_state)
        << variant.name;
    EXPECT_EQ(bare.snapshot.bins, controlled.snapshot.bins)
        << variant.name;
    EXPECT_EQ(bare.wait_stddev, controlled.wait_stddev) << variant.name;
  }
}

TEST(ControlDifferential, KillAndResumeMidShrinkDrain) {
  // Snapshot at the exact round where the controller has shrunk the
  // capacity but bins still hold more than it (the drain window), then
  // resume on a different kernel: byte-identical continuation,
  // including the controller's own state.
  const CappedConfig config = with_kernel(
      control_config(iba::control::Policy::kSweetSpot),
      RoundKernel::kBinMajor, 2);

  // Scout: find the first post-shrink round with an overfull bin.
  std::uint64_t drain_round = 0;
  {
    Capped scout(config, Engine(kSeed));
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      if (scout.round() + 1 == 100) scout.set_lambda_n(20);
      (void)scout.step();
      bool overfull = false;
      for (std::uint32_t bin = 0; bin < scout.n(); ++bin) {
        if (scout.load(bin) > scout.capacity()) overfull = true;
      }
      if (overfull) {
        drain_round = scout.round();
        break;
      }
    }
  }
  ASSERT_GT(drain_round, 100u) << "scenario never produced a draining bin";

  Capped uninterrupted(config, Engine(kSeed));
  for (std::uint64_t r = 0; r < drain_round; ++r) {
    if (uninterrupted.round() + 1 == 100) uninterrupted.set_lambda_n(20);
    (void)uninterrupted.step();
  }
  CappedSnapshot snap = uninterrupted.snapshot();
  snap.config.kernel = RoundKernel::kScalar;
  snap.config.shards = 1;
  Capped resumed(snap);
  ASSERT_NE(resumed.controller(), nullptr);
  for (int r = 0; r < 150; ++r) {
    const RoundMetrics a = uninterrupted.step();
    const RoundMetrics b = resumed.step();
    expect_metrics_eq(a, b, "control_resume", a.round);
  }
  expect_snapshot_eq(uninterrupted.snapshot(), resumed.snapshot(),
                     "control_resume");
  // restore() carries the counters, so totals line up exactly.
  EXPECT_EQ(uninterrupted.controller()->changes_total(),
            resumed.controller()->changes_total());
}

TEST(KernelDifferential, LargeNKillAndResumeAcrossShardCounts) {
  // The sharded sweep at realistic scale: at n = 10^7 an 8-shard run
  // must match the single-shard fused kernel round for round; a snapshot
  // taken mid-flight and resumed at a different shard count (4) must
  // continue byte-identically. Few rounds — byte identity does not need
  // steady state.
  CappedConfig config;
  config.n = 10'000'000;
  config.capacity = 2;
  config.lambda_n = 9'500'000;
  config.kernel = RoundKernel::kBinMajor;
  config.shards = 1;

  constexpr int kLargeRounds = 4;
  Capped reference(config, Engine(kSeed));
  std::vector<RoundMetrics> reference_metrics;
  for (int r = 0; r < kLargeRounds; ++r) {
    reference_metrics.push_back(reference.step());
  }

  CappedConfig sharded = config;
  sharded.shards = 8;
  Capped uninterrupted(sharded, Engine(kSeed));
  for (int r = 0; r < kLargeRounds / 2; ++r) {
    expect_metrics_eq(reference_metrics[static_cast<std::size_t>(r)],
                      uninterrupted.step(), "large_n_shards8", r);
  }

  CappedSnapshot snap = uninterrupted.snapshot();
  snap.config.shards = 4;  // an execution setting, not process state
  Capped resumed(snap);

  for (int r = kLargeRounds / 2; r < kLargeRounds; ++r) {
    const RoundMetrics expected =
        reference_metrics[static_cast<std::size_t>(r)];
    expect_metrics_eq(expected, uninterrupted.step(), "large_n_shards8", r);
    expect_metrics_eq(expected, resumed.step(), "large_n_resume4", r);
  }
  expect_snapshot_eq(reference.snapshot(), uninterrupted.snapshot(),
                     "large_n_shards8");
  expect_snapshot_eq(reference.snapshot(), resumed.snapshot(),
                     "large_n_resume4");
}

// -- multi-chunk sharding: the fused sweep gives each shard a slice of
// the throws and a run of whole 8192-bin chunks. At n <= 512 there is
// one chunk, so only here do several shards sweep bins at once ---------

constexpr std::uint32_t kMultiChunkN = 4 * 3 * 8192 + 17;  // 13 chunks
constexpr std::uint64_t kMultiChunkRounds = 40;
constexpr std::uint32_t kMultiChunkShards[] = {2, 4, 7};

/// `config` at kMultiChunkN bins and the same arrival rate.
CappedConfig multi_chunk(CappedConfig config) {
  config.lambda_n = config.lambda_n * kMultiChunkN / config.n;
  config.n = kMultiChunkN;
  return config;
}

void expect_runs_eq(const RunCapture& reference, const RunCapture& capture,
                    const char* variant) {
  ASSERT_EQ(reference.metrics.size(), capture.metrics.size()) << variant;
  for (std::size_t r = 0; r < reference.metrics.size(); ++r) {
    expect_metrics_eq(reference.metrics[r], capture.metrics[r], variant, r);
  }
  expect_snapshot_eq(reference.snapshot, capture.snapshot, variant);
  EXPECT_EQ(reference.wait_stddev, capture.wait_stddev) << variant;
  EXPECT_EQ(reference.wait_q99, capture.wait_q99) << variant;
}

TEST(KernelDifferential, MultiChunkShardsMatchScalar) {
  const auto shard_name = [](std::uint32_t shards) {
    return "shards_" + std::to_string(shards);
  };
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    const CappedConfig config = multi_chunk(scenario.config);
    const RunCapture reference =
        run(with_kernel(config, RoundKernel::kScalar, 1), kSeed,
            kMultiChunkRounds, /*trace=*/false);
    for (const std::uint32_t shards : kMultiChunkShards) {
      expect_runs_eq(reference,
                     run(with_kernel(config, RoundKernel::kBinMajor, shards),
                         kSeed, kMultiChunkRounds, /*trace=*/false),
                     shard_name(shards).c_str());
    }
  }

  // Faults straddling shard boundaries: a state-loss outage (drained
  // labels merge across shards), a degraded band, stragglers and random
  // crashes.
  {
    constexpr const char* kSchedule =
        "crash@5:bins=0-30000,down=6;"
        "degrade@8:bins=40000-70000,cap=1,for=20;"
        "straggle:bins=81000-90000,period=3;"
        "random-crash:p=0.002,down=2-6";
    SCOPED_TRACE(kSchedule);
    const CappedConfig config = multi_chunk(base_config());
    const RunCapture reference =
        run_with_faults(with_kernel(config, RoundKernel::kScalar, 1),
                        kSchedule, kSeed, kMultiChunkRounds);
    for (const std::uint32_t shards : kMultiChunkShards) {
      expect_runs_eq(
          reference,
          run_with_faults(with_kernel(config, RoundKernel::kBinMajor, shards),
                          kSchedule, kSeed, kMultiChunkRounds),
          shard_name(shards).c_str());
    }
  }

  // A wide pool-age spread: one ball from each of 8192 past rounds. The
  // fused sweep writes a sentinel per (bucket, chunk) — here 8193 × 13,
  // more than half the ~100k throws — so the first round bails out to
  // the scalar path and later rounds return to the sweep.
  {
    SCOPED_TRACE("wide_pool_age_spread");
    constexpr std::uint64_t kAges = 8192;
    CappedSnapshot wide;
    wide.config = multi_chunk(base_config());
    wide.round = kAges;
    wide.generated_total = kAges;
    wide.engine_state = Engine(kSeed).state();
    for (std::uint64_t label = 1; label <= kAges; ++label) {
      wide.pool.push_back({label, 1});
    }
    wide.bins.loads.assign(kMultiChunkN, 0);
    const auto resume = [&](RoundKernel kernel, std::uint32_t shards) {
      CappedSnapshot snap = wide;
      snap.config = with_kernel(snap.config, kernel, shards);
      Capped process(snap);
      return step_and_capture(process, 8);
    };
    const RunCapture reference = resume(RoundKernel::kScalar, 1);
    for (const std::uint32_t shards : kMultiChunkShards) {
      expect_runs_eq(reference, resume(RoundKernel::kBinMajor, shards),
                     shard_name(shards).c_str());
    }
  }
}

// The delete walk tallies waits below 64 per value and records longer
// ones one by one. A retained outage of 70 rounds over bins that end
// mid-chunk makes the recovered bins serve balls older than 64 rounds
// beside bins serving short waits, in the same chunks and rounds: with
// no other faults (the failure-free loop once the outage ends) and with
// failure coins (the faults/failures loop every round).
TEST(KernelDifferential, WaitsAcrossTheTallyBoundMatchScalar) {
  constexpr const char* kSchedule = "crash@2:bins=0-30000,down=70,retain";
  constexpr std::uint64_t kRoundsPastOutage = 90;
  auto failing = multi_chunk(base_config());
  failing.failure_probability = 0.2;
  const Scenario cases[] = {{"no_failures", multi_chunk(base_config())},
                            {"failures_skip", failing}};
  for (const Scenario& scenario : cases) {
    SCOPED_TRACE(scenario.name);
    const RunCapture reference = run_with_faults(
        with_kernel(scenario.config, RoundKernel::kScalar, 1), kSchedule,
        kSeed, kRoundsPastOutage);
    // Some round serves waits on both sides of the bound: its maximum is
    // at least 64 while its mean is below 64.
    bool straddled = false;
    for (const RoundMetrics& m : reference.metrics) {
      straddled = straddled ||
                  (m.wait_max >= 64 &&
                   m.wait_sum < 64.0 * static_cast<double>(m.wait_count));
    }
    EXPECT_TRUE(straddled) << "no round served waits on both sides of 64";
    for (const std::uint32_t shards : {1u, 4u}) {
      expect_runs_eq(
          reference,
          run_with_faults(
              with_kernel(scenario.config, RoundKernel::kBinMajor, shards),
              kSchedule, kSeed, kRoundsPastOutage),
          ("bin_major_" + std::to_string(shards)).c_str());
    }
  }
}

// -- folded configurations: per-bin capacities (CAPPED over non-uniform
// bins, with capacity-proportional routing) and the d = 2 greedy
// sampler run on the same two kernels ---------------------------------

/// c_i cycles 1, 2, 3 (config.capacity must be 3); bin i is chosen with
/// probability proportional to c_i.
RunCapture run_bin_capacities(const CappedConfig& config,
                              std::uint64_t rounds) {
  Capped process(config, Engine(kSeed));
  std::vector<std::uint32_t> caps(config.n);
  std::vector<double> weights(config.n);
  for (std::uint32_t i = 0; i < config.n; ++i) {
    caps[i] = 1 + i % 3;
    weights[i] = caps[i];
  }
  process.set_bin_capacities(caps);
  iba::core::WeightedBinSampler routing(config.n, weights);
  process.set_bin_sampler(&routing);
  return step_and_capture(process, rounds);
}

RunCapture run_greedy_d2(const CappedConfig& config, std::uint64_t rounds) {
  Capped process(config, Engine(kSeed));
  iba::core::GreedyChoiceSampler greedy(process, 2);
  process.set_bin_sampler(&greedy);
  return step_and_capture(process, rounds);
}

/// The Zipf sampler (s = 0.5), whose sampler rounds partition their
/// choices into exact regions.
RunCapture run_zipf(const CappedConfig& config, std::uint64_t rounds) {
  Capped process(config, Engine(kSeed));
  iba::scenario::ZipfBinSampler zipf(config.n, 0.5);
  process.set_bin_sampler(&zipf);
  return step_and_capture(process, rounds);
}

TEST(KernelDifferential, MappedZipfTableMatchesScalar) {
  // n = 2^17: the sampler's alias table is 2 MiB of slots, a huge-page
  // mapping of its arena.
  CappedConfig config = base_config();
  config.n = 1u << 17;
  config.lambda_n = config.n - config.n / 16;
  const RunCapture reference =
      run_zipf(with_kernel(config, RoundKernel::kScalar, 1), kMultiChunkRounds);
  for (const std::uint32_t shards : {1u, 4u}) {
    expect_runs_eq(
        reference,
        run_zipf(with_kernel(config, RoundKernel::kBinMajor, shards),
                 kMultiChunkRounds),
        ("bin_major_" + std::to_string(shards)).c_str());
  }
}

TEST(KernelDifferential, FoldedConfigurationsMatchScalar) {
  struct Folded {
    const char* name;
    RunCapture (*run)(const CappedConfig&, std::uint64_t);
  };
  constexpr Folded kFolded[] = {{"bin_capacities", run_bin_capacities},
                                {"greedy_d2", run_greedy_d2}};
  CappedConfig one_chunk = base_config();
  one_chunk.capacity = 3;
  for (const Folded& folded : kFolded) {
    for (const CappedConfig& config : {one_chunk, multi_chunk(one_chunk)}) {
      const std::uint64_t rounds =
          config.n == one_chunk.n ? kRounds : kMultiChunkRounds;
      SCOPED_TRACE(std::string(folded.name) + " n=" +
                   std::to_string(config.n));
      const RunCapture reference =
          folded.run(with_kernel(config, RoundKernel::kScalar, 1), rounds);
      for (const std::uint32_t shards : {1u, 2u, 4u}) {
        expect_runs_eq(
            reference,
            folded.run(with_kernel(config, RoundKernel::kBinMajor, shards),
                       rounds),
            ("bin_major_" + std::to_string(shards)).c_str());
      }
    }
  }
}

// -- the split draw: on a uniform round, shard s draws its own slice of
// the throws from a copy of the engine jumped to the slice's first
// throw, straight into its chunk streams -----------------------------

constexpr std::uint32_t kSplitShards[] = {2, 3, 4, 7};

RunCapture run_from(const CappedConfig& config, Engine engine,
                    std::uint64_t rounds) {
  Capped process(config, engine);
  return step_and_capture(process, rounds);
}

TEST(KernelDifferential, SplitDrawMatchesScalar) {
  // A ragged n (13 chunks, the last holding 17 bins), and a one-chunk
  // run whose rounds throw fewer balls than there are shards, leaving
  // some slices empty.
  CappedConfig sparse = base_config();
  sparse.capacity = 1;
  sparse.lambda_n = 1;
  const Scenario cases[] = {{"ragged_n", multi_chunk(base_config())},
                            {"fewer_throws_than_shards", sparse}};
  for (const Scenario& scenario : cases) {
    SCOPED_TRACE(scenario.name);
    const RunCapture reference =
        run(with_kernel(scenario.config, RoundKernel::kScalar, 1), kSeed,
            kMultiChunkRounds, /*trace=*/false);
    for (const std::uint32_t shards : kSplitShards) {
      expect_runs_eq(reference,
                     run(with_kernel(scenario.config, RoundKernel::kBinMajor,
                                     shards),
                         kSeed, kMultiChunkRounds, /*trace=*/false),
                     ("shards_" + std::to_string(shards)).c_str());
    }
  }
  const auto& metrics =
      run(with_kernel(sparse, RoundKernel::kScalar, 1), kSeed,
          kMultiChunkRounds, false)
          .metrics;
  EXPECT_TRUE(std::any_of(metrics.begin(), metrics.end(),
                          [](const RoundMetrics& m) {
                            return m.thrown > 0 && m.thrown < 7;
                          }));
}

TEST(KernelDifferential, SplitDrawSurvivesThrowCountJumps) {
  // Forty throws over 13 chunks and up to 7 slices size most regions
  // for one or two entries with nothing to spare, so early rounds
  // overflow and are drawn again; then the throw count jumps to 0.9 n
  // and back.
  CappedConfig config = multi_chunk(base_config());
  config.lambda_n = 40;
  const auto drive = [&](RoundKernel kernel, std::uint32_t shards) {
    Capped process(with_kernel(config, kernel, shards), Engine(kSeed));
    std::vector<RoundMetrics> head;
    for (int r = 0; r < 10; ++r) head.push_back(process.step());
    process.set_lambda_n(config.n / 10 * 9);
    for (int r = 0; r < 10; ++r) head.push_back(process.step());
    process.set_lambda_n(40);
    RunCapture capture = step_and_capture(process, 10);
    capture.metrics.insert(capture.metrics.begin(), head.begin(), head.end());
    return capture;
  };
  const RunCapture reference = drive(RoundKernel::kScalar, 1);
  for (const std::uint32_t shards : kSplitShards) {
    expect_runs_eq(reference, drive(RoundKernel::kBinMajor, shards),
                   ("shards_" + std::to_string(shards)).c_str());
  }
}

/// xoshiro256++ outputs rotl(s0 + s3, 23) + s0, so the state
/// {0, a, b, 0} outputs the word 0, which Lemire rejects for any n that
/// is not a power of two: the round's first throw takes two words.
Engine rejecting_engine() {
  return Engine(std::array<std::uint64_t, 4>{0, 0x9e3779b97f4a7c15ULL,
                                             0xbf58476d1ce4e5b9ULL, 0});
}

TEST(KernelDifferential, SplitDrawRejectionPartitionsTheSerialDraw) {
  // The rejection makes slice 0 end one word past slice 1's start. The
  // round is drawn serially and partitioned into the fused sweep, with
  // the bytes of one shard.
  const Engine planted = rejecting_engine();
  const CappedConfig config = multi_chunk(base_config());
  {
    Engine probe = planted;
    (void)iba::rng::bounded32(probe, config.n);
    Engine two = planted;
    two.discard(2);
    ASSERT_EQ(probe, two);
  }
  const RunCapture reference = run_from(
      with_kernel(config, RoundKernel::kBinMajor, 1), planted, 5);
  expect_runs_eq(
      reference,
      run_from(with_kernel(config, RoundKernel::kScalar, 1), planted, 5),
      "scalar");
  for (const std::uint32_t shards : kSplitShards) {
    expect_runs_eq(
        reference,
        run_from(with_kernel(config, RoundKernel::kBinMajor, shards), planted,
                 5),
        ("shards_" + std::to_string(shards)).c_str());
  }
}

// -- run-time instruments: attaching phase timers, a time series or a
// ball tracer changes no byte. round_fused branches on its timers, and
// a tracer sends every round down the scalar path ---------------------

enum class Instruments { kNone, kTimersAndSeries, kAll };

RunCapture run_instrumented(const CappedConfig& config, Engine engine,
                            Instruments instruments) {
  using iba::telemetry::Phase;
  Capped process(config, engine);
  iba::telemetry::PhaseTimers timers;
  iba::telemetry::TimeSeries series;
  iba::telemetry::BallTraceConfig trace_config;
  trace_config.seed = kSeed;
  trace_config.sample_rate = 0.01;
  iba::telemetry::BallTracer tracer(trace_config);
  if (instruments != Instruments::kNone) {
    process.set_phase_timers(&timers);
    process.set_time_series(&series);
  }
  if (instruments == Instruments::kAll) process.set_ball_tracer(&tracer);
  RunCapture capture = step_and_capture(process, kMultiChunkRounds);
  if (instruments != Instruments::kNone) {
    // Every thrown ball is timed once as kThrow and once as kAccept, on
    // the fused path, the scalar path and a rejected split draw alike.
    std::uint64_t thrown = 0;
    for (const RoundMetrics& m : capture.metrics) thrown += m.thrown;
    EXPECT_EQ(timers.balls(Phase::kThrow), thrown);
    EXPECT_EQ(timers.balls(Phase::kAccept), thrown);
    EXPECT_EQ(series.rounds_observed(), kMultiChunkRounds);
  }
  if (instruments == Instruments::kAll) {
    EXPECT_GT(tracer.sampled_arrivals(), 0u);
  }
  return capture;
}

TEST(KernelDifferential, InstrumentsChangeNoByte) {
  CappedConfig coins = multi_chunk(base_config());
  coins.failure_probability = 0.2;
  coins.failure_mode = FailureMode::kCrashRequeue;
  coins.deletion = DeletionDiscipline::kUniform;
  const struct {
    const char* name;
    CappedConfig config;
    Engine engine;
  } cases[] = {
      {"fifo", multi_chunk(base_config()), Engine(kSeed)},
      {"failure_coins", coins, Engine(kSeed)},
      {"rejected_split_draw", multi_chunk(base_config()), rejecting_engine()},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (const std::uint32_t shards : {1u, 4u}) {
      const CappedConfig config =
          with_kernel(c.config, RoundKernel::kBinMajor, shards);
      const RunCapture bare =
          run_instrumented(config, c.engine, Instruments::kNone);
      const std::string tag = "shards_" + std::to_string(shards);
      expect_runs_eq(
          bare,
          run_instrumented(config, c.engine, Instruments::kTimersAndSeries),
          (tag + "_timers_series").c_str());
      expect_runs_eq(bare,
                     run_instrumented(config, c.engine, Instruments::kAll),
                     (tag + "_all").c_str());
    }
  }
}

TEST(KernelDifferential, SplitDrawLeavesTheSerialEngineState) {
  // FIFO service and deterministic arrivals draw nothing, so after each
  // round the engine stands exactly past a serial draw of its throws.
  const CappedConfig config =
      with_kernel(multi_chunk(base_config()), RoundKernel::kBinMajor, 4);
  Capped process(config, Engine(kSeed));
  Engine serial(kSeed);
  std::vector<std::uint32_t> choices;
  for (int r = 0; r < 5; ++r) {
    choices.resize(process.balls_to_throw());
    iba::rng::fill_bounded(serial, std::span<std::uint32_t>(choices),
                           config.n);
    (void)process.step();
    EXPECT_EQ(process.engine_state(), serial.state()) << "round " << r;
  }
}

// StreamRegions + draw_slice directly: regions too small for a draw
// report the overflow and widen to its counts, and the redraw writes
// each kept choice's offset into its chunk's stream in draw order, with
// one sentinel per bucket.
TEST(StreamRegions, OverflowWidensAndTheRedrawMatchesTheSerialDraw) {
  using iba::core::kChunkBits;
  using iba::core::kChunkWidth;
  using iba::core::kSentinel;
  using iba::core::StreamRegions;
  using iba::core::ThrowSlice;
  constexpr std::uint32_t kN = 30000;
  constexpr std::uint32_t kBinLo = 3000;
  constexpr std::uint32_t kBins = 2 * kChunkWidth + 100;  // ragged
  const std::vector<std::uint64_t> bucket_ends = {600, 1000};
  const ThrowSlice all{.hi = 1000, .bucket_hi = 2};
  StreamRegions regions;
  regions.shape(1, kBins);
  ASSERT_EQ(regions.chunks(), 3u);
  regions.lay_out([](std::size_t, std::uint32_t) { return 1; });
  regions.rewind();
  Engine first(kSeed);
  iba::core::draw_slice(regions, 0, all, bucket_ends, first, nullptr, kN,
                        kBinLo);
  EXPECT_FALSE(regions.fit());
  regions.rewind();
  Engine again(kSeed);
  iba::core::draw_slice(regions, 0, all, bucket_ends, again, nullptr, kN,
                        kBinLo);
  ASSERT_TRUE(regions.fit());
  EXPECT_EQ(first, again);

  Engine serial(kSeed);
  std::vector<std::uint32_t> choices(1000);
  iba::rng::fill_bounded(serial, std::span<std::uint32_t>(choices), kN);
  EXPECT_EQ(again, serial);
  std::vector<std::vector<std::uint16_t>> expected(3);
  std::size_t idx = 0;
  for (const std::uint64_t end : bucket_ends) {
    for (; idx < end; ++idx) {
      const std::uint32_t bin = choices[idx] - kBinLo;
      if (choices[idx] < kBinLo || bin >= kBins) continue;
      expected[bin >> kChunkBits].push_back(
          static_cast<std::uint16_t>(bin & (kChunkWidth - 1)));
    }
    for (auto& stream : expected) stream.push_back(kSentinel);
  }
  for (std::uint32_t c = 0; c < 3; ++c) {
    const std::vector<std::uint16_t> stream(
        regions.data() + regions.begins()[c],
        regions.data() + regions.cursors()[c]);
    EXPECT_EQ(stream, expected[c]) << "chunk " << c;
  }
}

/// Every choice inside [lo, lo + width): a draw that puts every throw
/// into one chunk.
class OneChunkSampler final : public iba::core::BinChoiceSampler {
 public:
  OneChunkSampler(std::uint32_t lo, std::uint32_t width)
      : lo_(lo), width_(width) {}
  void fill(Engine& engine, std::span<std::uint32_t> out) override {
    for (std::uint32_t& choice : out) {
      choice = lo_ + iba::rng::bounded32(engine, width_);
    }
  }

 private:
  std::uint32_t lo_;
  std::uint32_t width_;
};

// Every throw into the range's last chunk, with regions sized for a
// uniform draw: that stream overflows its region by thousands of
// entries, far more than the append look-ahead, and its cursor runs past
// the end of the buffer. An append past its region writes and prefetches
// nothing, and the redraw into the widened regions writes the serial
// draw's streams. On the full range (the plain loop) and a narrower one
// (the compacted keep).
TEST(StreamRegions, OverflowFarPastTheLookAheadRedrawsTheSerialDraw) {
  using iba::core::chunk_count;
  using iba::core::kAppendAhead;
  using iba::core::kChunkBits;
  using iba::core::kChunkWidth;
  using iba::core::kSentinel;
  using iba::core::StreamRegions;
  using iba::core::ThrowSlice;
  constexpr std::uint32_t kN = 4 * kChunkWidth;
  const std::vector<std::uint64_t> bucket_ends = {3000, 10000};
  const ThrowSlice all{.hi = bucket_ends.back(),
                       .bucket_hi = bucket_ends.size()};
  struct Range {
    const char* name;
    std::uint32_t bin_lo;
    std::uint32_t bins;
  };
  for (const Range& range : {Range{"full", 0, kN},
                             Range{"narrower", kChunkWidth / 2,
                                   2 * kChunkWidth + 100}}) {
    SCOPED_TRACE(range.name);
    const std::uint32_t chunks = chunk_count(range.bins);
    const std::uint32_t last = (chunks - 1) << kChunkBits;
    OneChunkSampler sampler(range.bin_lo + last, range.bins - last);

    Engine serial(kSeed);
    std::vector<std::uint32_t> choices(all.hi);
    sampler.fill(serial, choices);
    std::vector<std::vector<std::uint16_t>> expected(chunks);
    std::size_t idx = 0;
    for (const std::uint64_t end : bucket_ends) {
      for (; idx < end; ++idx) {
        expected.back().push_back(
            static_cast<std::uint16_t>(choices[idx] - range.bin_lo - last));
      }
      for (auto& stream : expected) stream.push_back(kSentinel);
    }

    StreamRegions regions;
    regions.shape(1, range.bins);
    regions.widen_uniform({&all, 1}, kN);
    regions.rewind();
    Engine drawn(kSeed);
    iba::core::draw_slice(regions, 0, all, bucket_ends, drawn, &sampler, kN,
                          range.bin_lo);
    // Past its region, and past the buffer's slack after the last region.
    EXPECT_GT(regions.cursors()[chunks - 1],
              regions.limits()[chunks - 1] + 10 * kAppendAhead);
    EXPECT_FALSE(regions.fit());

    regions.rewind();
    drawn = Engine(kSeed);
    const std::uint64_t kept = iba::core::draw_slice(
        regions, 0, all, bucket_ends, drawn, &sampler, kN, range.bin_lo);
    ASSERT_TRUE(regions.fit());
    EXPECT_EQ(kept, all.hi);
    EXPECT_EQ(drawn, serial);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const std::vector<std::uint16_t> stream(
          regions.data() + regions.begins()[c],
          regions.data() + regions.cursors()[c]);
      EXPECT_EQ(stream, expected[c]) << "chunk " << c;
    }
  }
}

// draw_slice against a serial reference: one fill over every throw,
// then a filter to the range. A range narrower than n takes the compacted
// keep, the full range its plain loop; both must give the serial draw's
// streams, sentinels, kept count and post-draw engine state, through the
// uniform draw and the Zipf sampler, over more than three 4096-choice
// batches with bucket ends inside a batch.
struct KeepCase {
  const char* name;
  std::uint32_t bin_lo;
  std::uint32_t bins;
  bool zipf;
};

void PrintTo(const KeepCase& keep, std::ostream* out) {
  *out << keep.name << (keep.zipf ? " zipf" : " uniform");
}

class DrawSliceKeep : public ::testing::TestWithParam<KeepCase> {};

// A ragged n: three full chunks and a partial one.
constexpr std::uint32_t kKeepN = 3 * iba::core::kChunkWidth + 777;

TEST_P(DrawSliceKeep, MatchesTheSerialDrawFiltered) {
  using iba::core::kChunkBits;
  using iba::core::kChunkWidth;
  using iba::core::kSentinel;
  using iba::core::StreamRegions;
  using iba::core::ThrowSlice;
  const KeepCase& param = GetParam();
  ASSERT_LE(param.bin_lo + param.bins, kKeepN);
  const std::vector<std::uint64_t> bucket_ends = {1000, 6000, 9100, 14000};
  const ThrowSlice all{.hi = bucket_ends.back(),
                       .bucket_hi = bucket_ends.size()};
  iba::scenario::ZipfBinSampler zipf(kKeepN, 0.8);
  iba::core::BinChoiceSampler* const sampler =
      param.zipf ? &zipf : nullptr;

  Engine serial(kSeed);
  std::vector<std::uint32_t> choices(all.hi);
  if (sampler != nullptr) {
    zipf.fill(serial, choices);
  } else {
    iba::rng::fill_bounded(serial, std::span<std::uint32_t>(choices),
                           kKeepN);
  }
  std::vector<std::vector<std::uint16_t>> expected(
      iba::core::chunk_count(param.bins));
  std::uint64_t in_range = 0;
  std::size_t idx = 0;
  for (const std::uint64_t end : bucket_ends) {
    for (; idx < end; ++idx) {
      if (choices[idx] < param.bin_lo ||
          choices[idx] - param.bin_lo >= param.bins) {
        continue;
      }
      const std::uint32_t bin = choices[idx] - param.bin_lo;
      expected[bin >> kChunkBits].push_back(
          static_cast<std::uint16_t>(bin & (kChunkWidth - 1)));
      ++in_range;
    }
    for (auto& stream : expected) stream.push_back(kSentinel);
  }
  ASSERT_GT(in_range, 0u);

  // The worker's draw on each SIMD backend (the keep has a scalar and an
  // AVX2 form): regions for a uniform draw, widened and redrawn until
  // every stream fits.
  for (const SimdBackend backend :
       {SimdBackend::kScalar, SimdBackend::kAvx2}) {
    iba::rng::set_simd_backend(backend);
    StreamRegions regions;
    regions.shape(1, param.bins);
    regions.widen_uniform({&all, 1}, kKeepN);
    Engine drawn(kSeed);
    std::uint64_t kept = 0;
    do {
      regions.rewind();
      drawn = Engine(kSeed);
      kept = iba::core::draw_slice(regions, 0, all, bucket_ends, drawn,
                                   sampler, kKeepN, param.bin_lo);
    } while (!regions.fit());
    iba::rng::reset_simd_backend();

    const char* const name = iba::rng::simd_backend_name(backend);
    EXPECT_EQ(drawn, serial) << name;
    EXPECT_EQ(kept, in_range) << name;
    for (std::uint32_t c = 0; c < regions.chunks(); ++c) {
      const std::vector<std::uint16_t> stream(
          regions.data() + regions.begins()[c],
          regions.data() + regions.cursors()[c]);
      EXPECT_EQ(stream, expected[c]) << name << ", chunk " << c;
    }
  }
}

std::vector<KeepCase> keep_cases() {
  // The coordinator's W = 3 split: the first n % 3 ranges hold one more.
  const auto lo = [](std::uint32_t w) {
    return w * (kKeepN / 3) + std::min(w, kKeepN % 3);
  };
  const std::vector<KeepCase> ranges = {
      {"first_of_three", 0, lo(1), false},
      {"middle_of_three", lo(1), lo(2) - lo(1), false},
      {"last_of_three", lo(2), kKeepN - lo(2), false},
      {"narrower_than_a_chunk", 5000, 300, false},
      {"starts_mid_chunk", iba::core::kChunkWidth + 4000,
       iba::core::kChunkWidth + 1000, false},
      {"full", 0, kKeepN, false}};
  std::vector<KeepCase> all;
  for (const bool zipf : {false, true}) {
    for (KeepCase c : ranges) {
      c.zipf = zipf;
      all.push_back(c);
    }
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, DrawSliceKeep, ::testing::ValuesIn(keep_cases()),
    [](const ::testing::TestParamInfo<KeepCase>& case_info) {
      return std::string(case_info.param.name) +
             (case_info.param.zipf ? "_zipf" : "_uniform");
    });

TEST(KernelDifferential, ConfigValidationRejectsShardedScalar) {
  CappedConfig config = base_config();
  config.kernel = RoundKernel::kScalar;
  config.shards = 2;
  EXPECT_THROW(config.validate(), iba::ContractViolation);
  config.shards = 0;
  EXPECT_THROW(config.validate(), iba::ContractViolation);
}

}  // namespace
