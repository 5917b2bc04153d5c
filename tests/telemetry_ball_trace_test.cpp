// Ball-lifecycle span tracing: flow conservation at full sampling,
// per-span invariants (pool + bin-queue decomposition of the wait, throw
// accounting), deterministic sampling (same seed ⇒ byte-identical span
// streams), crash-requeue coverage,
// discipline coverage, and registry recording.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/capped.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "telemetry/ball_trace.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"

namespace {

using iba::core::Capped;
using iba::core::CappedConfig;
using iba::core::Engine;
using iba::telemetry::BallSpan;
using iba::telemetry::BallTraceConfig;
using iba::telemetry::BallTracer;
using iba::telemetry::kSpanAttemptCap;

[[maybe_unused]] iba::sim::SimConfig small_config(std::uint64_t seed) {
  iba::sim::SimConfig config;
  config.n = 256;
  config.capacity = 2;
  config.lambda_n = 224;  // λ = 7/8
  config.burn_in = 200;
  config.auto_burn_in = false;
  config.measure_rounds = 300;
  config.seed = seed;
  return config;
}

[[maybe_unused]] std::string spans_to_string(
    const std::deque<BallSpan>& spans) {
  std::ostringstream out;
  for (const BallSpan& span : spans) {
    iba::telemetry::write_span_json(span, out);
  }
  return out.str();
}

[[maybe_unused]] void check_span_invariants(const BallSpan& span,
                                            std::uint32_t capacity) {
  EXPECT_LE(span.arrival_round, span.accept_round) << span.ball_id;
  EXPECT_LE(span.accept_round, span.service_round) << span.ball_id;
  EXPECT_EQ(span.pool_rounds + span.bin_rounds, span.wait()) << span.ball_id;
  EXPECT_EQ(span.throws, span.failed_throws + span.requeues + 1)
      << span.ball_id;
  EXPECT_LT(span.queue_depth, capacity) << span.ball_id;
  const std::uint32_t expect_recorded =
      span.failed_throws < kSpanAttemptCap ? span.failed_throws
                                           : kSpanAttemptCap;
  EXPECT_EQ(span.recorded_failed, expect_recorded) << span.ball_id;
  for (std::uint32_t i = 0; i < span.recorded_failed; ++i) {
    EXPECT_EQ(span.failed[i].load, capacity) << span.ball_id;
    EXPECT_GE(span.failed[i].round, span.arrival_round) << span.ball_id;
    EXPECT_LE(span.failed[i].round, span.service_round) << span.ball_id;
  }
}

#if IBA_TELEMETRY_ENABLED

TEST(BallTrace, FullSamplingConservesEveryBall) {
  CappedConfig config;
  config.n = 128;
  config.capacity = 2;
  config.lambda_n = 112;
  Capped process(config, Engine(7));

  BallTraceConfig trace;
  trace.seed = 7;
  trace.sample_rate = 1.0;
  trace.completed_capacity = 1u << 20;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);

  std::uint64_t deleted = 0;
  for (int round = 0; round < 400; ++round) {
    deleted += process.step().deleted;
  }

  // Every generated ball was sampled; every sampled ball is either
  // completed or still in flight.
  EXPECT_EQ(tracer.sampled_arrivals(), process.generated_total());
  EXPECT_EQ(tracer.skipped_samples(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.completed_total() + tracer.active_count(),
            tracer.sampled_arrivals());
  EXPECT_EQ(tracer.completed_total(), deleted);
  EXPECT_EQ(tracer.completed().size(), deleted);

  for (const BallSpan& span : tracer.completed()) {
    check_span_invariants(span, config.capacity);
  }

  // At full sampling the spans ARE the wait statistics: mean and max of
  // span waits must reproduce the process's own WaitRecorder exactly.
  double wait_sum = 0.0;
  std::uint64_t wait_max = 0;
  for (const BallSpan& span : tracer.completed()) {
    wait_sum += static_cast<double>(span.wait());
    if (span.wait() > wait_max) wait_max = span.wait();
  }
  ASSERT_GT(deleted, 0u);
  EXPECT_NEAR(wait_sum / static_cast<double>(deleted),
              process.waits().mean(), 1e-9);
  EXPECT_EQ(wait_max, process.waits().max());

  // The decomposition histograms cover exactly the completed spans.
  EXPECT_EQ(tracer.pool_wait().count(), tracer.completed_total());
  EXPECT_EQ(tracer.bin_wait().count(), tracer.completed_total());
  EXPECT_NEAR(tracer.pool_wait().sum() + tracer.bin_wait().sum(), wait_sum,
              1e-9);
}

TEST(BallTrace, BallIdsAreTheGenerationSequence) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  Capped process(config, Engine(11));

  BallTraceConfig trace;
  trace.seed = 11;
  trace.sample_rate = 1.0;
  trace.completed_capacity = 1u << 18;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 200; ++round) process.step();

  // At full sampling, completed + active ids partition
  // [0, generated_total): check ids are unique and in range.
  std::vector<bool> seen(process.generated_total(), false);
  for (const BallSpan& span : tracer.completed()) {
    ASSERT_LT(span.ball_id, seen.size());
    EXPECT_FALSE(seen[span.ball_id]) << "duplicate span " << span.ball_id;
    seen[span.ball_id] = true;
  }
}

TEST(BallTrace, SameSeedSameSpanBytes) {
  auto run_once = [] {
    CappedConfig config;
    config.n = 256;
    config.capacity = 2;
    config.lambda_n = 224;
    Capped process(config, Engine(42));
    BallTraceConfig trace;
    trace.seed = 42;
    trace.sample_rate = 0.25;
    trace.completed_capacity = 1u << 18;
    BallTracer tracer(trace);
    process.set_ball_tracer(&tracer);
    for (int round = 0; round < 300; ++round) process.step();
    return spans_to_string(tracer.completed());
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(BallTrace, PartialSamplingTracesExactlyTheHashedSubset) {
  CappedConfig config;
  config.n = 256;
  config.capacity = 2;
  config.lambda_n = 224;
  Capped process(config, Engine(3));
  BallTraceConfig trace;
  trace.seed = 3;
  trace.sample_rate = 0.25;
  trace.completed_capacity = 1u << 18;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 300; ++round) process.step();

  EXPECT_GT(tracer.completed_total(), 0u);
  EXPECT_LT(tracer.sampled_arrivals(), process.generated_total());
  for (const BallSpan& span : tracer.completed()) {
    EXPECT_TRUE(tracer.is_sampled(span.ball_id)) << span.ball_id;
    check_span_invariants(span, config.capacity);
  }

  // The sampler is a pure function of (seed, id): an independent tracer
  // with the same seed agrees on every decision.
  BallTracer same_seed(trace);
  trace.seed = 4;
  BallTracer other_seed(trace);
  std::uint64_t agree = 0, differ = 0;
  for (std::uint64_t id = 0; id < 4096; ++id) {
    EXPECT_EQ(tracer.is_sampled(id), same_seed.is_sampled(id));
    if (tracer.is_sampled(id) == other_seed.is_sampled(id)) {
      ++agree;
    } else {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0u);  // different seed ⇒ different subset
  EXPECT_GT(agree, 0u);
}

TEST(BallTrace, CompletedRingDropsOldestAndCounts) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 56;
  Capped process(config, Engine(5));
  BallTraceConfig trace;
  trace.seed = 5;
  trace.sample_rate = 1.0;
  trace.completed_capacity = 32;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 200; ++round) process.step();

  EXPECT_EQ(tracer.completed().size(), 32u);
  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.dropped() + tracer.completed().size(),
            tracer.completed_total());
  // The buffer keeps the newest spans.
  EXPECT_EQ(tracer.completed().back().service_round, process.round());
}

TEST(BallTrace, CrashRequeueDecomposesStints) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  config.failure_probability = 0.2;
  config.failure_mode = iba::core::FailureMode::kCrashRequeue;
  Capped process(config, Engine(13));
  BallTraceConfig trace;
  trace.seed = 13;
  trace.sample_rate = 1.0;
  trace.completed_capacity = 1u << 18;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);

  std::uint64_t deleted = 0;
  for (int round = 0; round < 300; ++round) deleted += process.step().deleted;

  EXPECT_EQ(tracer.completed_total(), deleted);
  std::uint64_t requeues = 0;
  for (const BallSpan& span : tracer.completed()) {
    check_span_invariants(span, config.capacity);
    requeues += span.requeues;
  }
  // p = 0.2 over 300 rounds × 64 bins: requeues are essentially certain.
  EXPECT_GT(requeues, 0u);
}

TEST(BallTrace, CoversAllDisciplinesAndAcceptanceOrders) {
  struct Case {
    iba::core::DeletionDiscipline deletion;
    iba::core::AcceptanceOrder acceptance;
  };
  const Case cases[] = {
      {iba::core::DeletionDiscipline::kLifo,
       iba::core::AcceptanceOrder::kOldestFirst},
      {iba::core::DeletionDiscipline::kUniform,
       iba::core::AcceptanceOrder::kOldestFirst},
      {iba::core::DeletionDiscipline::kFifo,
       iba::core::AcceptanceOrder::kYoungestFirst},
  };
  for (const Case& test_case : cases) {
    CappedConfig config;
    config.n = 64;
    config.capacity = 3;
    config.lambda_n = 48;
    config.deletion = test_case.deletion;
    config.acceptance = test_case.acceptance;
    Capped process(config, Engine(17));
    BallTraceConfig trace;
    trace.seed = 17;
    trace.sample_rate = 1.0;
    trace.completed_capacity = 1u << 18;
    BallTracer tracer(trace);
    process.set_ball_tracer(&tracer);

    std::uint64_t deleted = 0;
    for (int round = 0; round < 200; ++round) {
      deleted += process.step().deleted;
    }
    EXPECT_EQ(tracer.completed_total(), deleted);
    EXPECT_EQ(tracer.completed_total() + tracer.active_count(),
              tracer.sampled_arrivals());
    for (const BallSpan& span : tracer.completed()) {
      check_span_invariants(span, config.capacity);
    }
  }
}

TEST(BallTrace, ClearCompletedKeepsLifetimeCounters) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  Capped process(config, Engine(29));
  BallTraceConfig trace;
  trace.seed = 29;
  trace.sample_rate = 1.0;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 100; ++round) process.step();

  const std::uint64_t completed_before = tracer.completed_total();
  const std::uint64_t sampled_before = tracer.sampled_arrivals();
  ASSERT_GT(completed_before, 0u);
  tracer.clear_completed();
  EXPECT_TRUE(tracer.completed().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.pool_wait().count(), 0u);
  EXPECT_EQ(tracer.bin_wait().count(), 0u);
  EXPECT_EQ(tracer.completed_total(), completed_before);
  EXPECT_EQ(tracer.sampled_arrivals(), sampled_before);

  // Tracing continues seamlessly after the clear.
  for (int round = 0; round < 50; ++round) process.step();
  EXPECT_GT(tracer.completed_total(), completed_before);
  for (const BallSpan& span : tracer.completed()) {
    check_span_invariants(span, config.capacity);
  }
}

TEST(BallTrace, LiveRingReceivesCompletedSpans) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  Capped process(config, Engine(31));
  BallTraceConfig trace;
  trace.seed = 31;
  trace.sample_rate = 1.0;
  trace.completed_capacity = 1u << 18;
  BallTracer tracer(trace);
  iba::telemetry::SpanRing ring(1u << 16);
  tracer.set_live_ring(&ring);
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 100; ++round) process.step();

  ASSERT_GT(tracer.completed_total(), 0u);
  std::uint64_t drained = 0;
  BallSpan span;
  std::uint64_t last_service = 0;
  while (ring.try_pop(span)) {
    ++drained;
    EXPECT_GE(span.service_round, last_service);  // completion order
    last_service = span.service_round;
  }
  EXPECT_EQ(drained, tracer.completed_total());
}

TEST(BallTrace, RunnerClearsBurnInSpansAndRecordsRegistry) {
  const auto config = small_config(99);
  iba::telemetry::Registry registry;
  BallTraceConfig trace;
  trace.seed = config.seed;
  trace.sample_rate = 1.0;
  trace.completed_capacity = 1u << 20;
  BallTracer tracer(trace);
  iba::sim::RunTelemetry telemetry;
  telemetry.registry = &registry;
  telemetry.ball_trace = &tracer;

  const auto result = iba::sim::run_capped(
      config, iba::sim::RunSpec::from_config(config), telemetry);

  // Burn-in spans were cleared: buffered spans all completed during the
  // measurement window.
  ASSERT_FALSE(tracer.completed().empty());
  for (const BallSpan& span : tracer.completed()) {
    EXPECT_GE(span.service_round, config.burn_in);
  }
  // At full sampling, the measured spans are the measured deletions.
  EXPECT_EQ(tracer.completed().size() + tracer.dropped(), result.deletions);

  EXPECT_EQ(registry.counter("spans_completed_total").value(),
            tracer.completed_total());
  EXPECT_EQ(registry.counter("spans_sampled_total").value(),
            tracer.sampled_arrivals());
  EXPECT_EQ(registry.histogram("span_pool_rounds").count(),
            tracer.completed().size() + tracer.dropped());
  EXPECT_EQ(registry.histogram("span_binq_rounds").count(),
            tracer.completed().size() + tracer.dropped());
}

TEST(BallTrace, ZeroRateTracesNothing) {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  Capped process(config, Engine(37));
  BallTraceConfig trace;
  trace.seed = 37;
  trace.sample_rate = 0.0;
  BallTracer tracer(trace);
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 100; ++round) process.step();
  EXPECT_EQ(tracer.sampled_arrivals(), 0u);
  EXPECT_EQ(tracer.completed_total(), 0u);
  EXPECT_TRUE(tracer.completed().empty());
  EXPECT_FALSE(tracer.is_sampled(0));
}

#else  // IBA_TELEMETRY_ENABLED == 0

TEST(BallTraceDisabled, TracerIsAnInertShell) {
  BallTraceConfig trace;
  trace.sample_rate = 1.0;
  BallTracer tracer(trace);
  tracer.on_arrivals(0, 0, 8);
  tracer.on_throw(0, 0, 0, true);
  tracer.on_delete(0, 0, 0);
  tracer.on_requeue(0, 0);
  tracer.on_round_end(0);
  EXPECT_TRUE(tracer.completed().empty());
  EXPECT_EQ(tracer.completed_total(), 0u);
  EXPECT_FALSE(tracer.is_sampled(1));

  // Attaching to a process is still legal and changes nothing.
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  Capped process(config, Engine(1));
  process.set_ball_tracer(&tracer);
  for (int round = 0; round < 50; ++round) process.step();
  EXPECT_TRUE(tracer.completed().empty());
}

#endif

}  // namespace
