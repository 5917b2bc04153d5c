// Telemetry subsystem: registry instruments, the SPSC
// round trace (including a real producer/consumer thread pair), phase
// timers, and golden-file round-trips through both exporters.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/round_trace.hpp"
#include "telemetry/shared_registry.hpp"

namespace {

using iba::telemetry::DyadicHistogram;
using iba::telemetry::PhaseTimers;
using iba::telemetry::Phase;
using iba::telemetry::Registry;
using iba::telemetry::RoundEvent;
using iba::telemetry::RoundTrace;
using iba::telemetry::SharedRegistry;
using iba::telemetry::SpscRing;

TEST(Registry, CountersAccumulateAndAreStable) {
  Registry registry;
  auto& counter = registry.counter("events_total");
  counter.inc();
  counter.inc(41);
  // Same name resolves to the same instrument.
  EXPECT_EQ(registry.counter("events_total").value(), 42u);
  // Creating more instruments must not invalidate the first handle.
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("other_" + std::to_string(i));
  }
  counter.inc();
  EXPECT_EQ(registry.counter("events_total").value(), 43u);
}

TEST(Registry, GaugeTracksLastAndMax) {
  Registry registry;
  auto& gauge = registry.gauge("pool");
  gauge.set(5.0);
  gauge.set(9.0);
  gauge.set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 9.0);
}

TEST(Registry, HistogramCountsSumAndQuantiles) {
  Registry registry;
  auto& histogram = registry.histogram("wait");
  for (std::uint64_t v = 0; v < 100; ++v) histogram.observe(v);
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 4950.0);
  EXPECT_EQ(histogram.max(), 99u);
  EXPECT_GE(histogram.quantile_upper_bound(0.99), 98u);
  EXPECT_LE(histogram.quantile_upper_bound(0.99), 127u);
}

TEST(Registry, ShiftedHistogramBucketsAtCoarserGranularity) {
  Registry registry;
  auto& ns_hist = registry.histogram("step_ns", 10);  // ~µs resolution
  EXPECT_EQ(ns_hist.shift(), 10u);
  ns_hist.observe(1 << 10);
  ns_hist.observe((1 << 11) - 1);  // same 2^shift bucket as 1<<10
  EXPECT_EQ(ns_hist.count(), 2u);
  EXPECT_EQ(ns_hist.buckets().count(1), 2u);  // both land in bucket [1,2)
  EXPECT_EQ(ns_hist.max(), (1u << 11) - 1);
  // Quantile bounds are scaled back into value space.
  EXPECT_GE(ns_hist.quantile_upper_bound(1.0), (1u << 11) - 1);

  // Re-resolving with the same shift is fine; a different shift is a
  // contract violation — one name must mean one bucket layout.
  EXPECT_EQ(&registry.histogram("step_ns", 10), &ns_hist);
  EXPECT_THROW((void)registry.histogram("step_ns", 3),
               iba::ContractViolation);
  // The shift-less accessor on an existing shifted histogram just
  // returns it — only an explicit conflicting shift is rejected.
  EXPECT_EQ(registry.histogram("step_ns").shift(), 10u);

  // Shifted histograms survive the exporters: le edges are scaled back
  // into value space ((1 << 11) − 1 >> 10 = 1 sits in the bucket whose
  // scaled upper edge is 2·2^10 − 1 = 2047).
  std::ostringstream prom;
  iba::telemetry::write_prometheus(registry, prom);
  EXPECT_NE(prom.str().find("iba_step_ns_bucket{le=\"2047\"} 2"),
            std::string::npos)
      << prom.str();
}

TEST(Registry, HistogramMergeRejectsMismatchedLayouts) {
  DyadicHistogram coarse(10), fine(0);
  coarse.observe(2048);
  fine.observe(2048);
  EXPECT_FALSE(coarse.layout_compatible(fine));
  EXPECT_THROW(coarse.merge(fine), iba::ContractViolation);
}

TEST(Export, PrometheusGolden) {
  Registry registry;
  registry.counter("balls_deleted_total").inc(7);
  registry.gauge("pool_size").set(12.5);
  auto& histogram = registry.histogram("wait_rounds");
  histogram.observe(0);
  histogram.observe(1);
  histogram.observe(5);

  std::ostringstream out;
  iba::telemetry::write_prometheus(registry, out);
  const std::string expected =
      "# TYPE iba_balls_deleted_total counter\n"
      "iba_balls_deleted_total 7\n"
      "# TYPE iba_pool_size gauge\n"
      "iba_pool_size 12.5\n"
      "# TYPE iba_wait_rounds histogram\n"
      "iba_wait_rounds_bucket{le=\"0\"} 1\n"
      "iba_wait_rounds_bucket{le=\"1\"} 2\n"
      "iba_wait_rounds_bucket{le=\"3\"} 2\n"
      "iba_wait_rounds_bucket{le=\"7\"} 3\n"
      "iba_wait_rounds_bucket{le=\"+Inf\"} 3\n"
      "iba_wait_rounds_sum 6\n"
      "iba_wait_rounds_count 3\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Export, JsonLinesGolden) {
  Registry registry;
  registry.counter("balls_deleted_total").inc(7);
  registry.gauge("pool_size").set(12.5);
  auto& histogram = registry.histogram("wait_rounds");
  histogram.observe(0);
  histogram.observe(1);
  histogram.observe(5);

  std::ostringstream out;
  iba::telemetry::write_json_line(registry, out);
  const std::string expected =
      "{\"counters\":{\"balls_deleted_total\":7},"
      "\"gauges\":{\"pool_size\":{\"value\":12.5,\"max\":12.5}},"
      "\"histograms\":{\"wait_rounds\":{\"count\":3,\"sum\":6,\"max\":5,"
      "\"buckets\":[{\"le\":0,\"count\":1},{\"le\":1,\"count\":1},"
      "{\"le\":7,\"count\":1}]}}}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Export, RoundTripThroughBothExportersAgrees) {
  // The same registry must tell the same story through both formats:
  // identical counter values, identical histogram count/sum.
  Registry registry;
  registry.counter("rounds_total").inc(1000);
  registry.histogram("wait_rounds").observe(42);

  std::ostringstream prom, jsonl;
  iba::telemetry::write_prometheus(registry, prom);
  iba::telemetry::write_json_line(registry, jsonl);
  EXPECT_NE(prom.str().find("iba_rounds_total 1000"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"rounds_total\":1000"), std::string::npos);
  EXPECT_NE(prom.str().find("iba_wait_rounds_count 1"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"count\":1"), std::string::npos);
}

TEST(Export, SanitizesMetricNames) {
  EXPECT_EQ(iba::telemetry::sanitize_metric_name("a.b c-d"), "a_b_c_d");
  EXPECT_EQ(iba::telemetry::sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(iba::telemetry::sanitize_metric_name("ok_name:x"), "ok_name:x");
}

TEST(Export, SnapshotFilePicksFormatByExtension) {
  Registry registry;
  registry.counter("c").inc(1);
  const std::string prom_path = ::testing::TempDir() + "snap.prom";
  const std::string json_path = ::testing::TempDir() + "snap.jsonl";
  ASSERT_TRUE(iba::telemetry::write_snapshot_file(registry, prom_path));
  ASSERT_TRUE(iba::telemetry::write_snapshot_file(registry, json_path));
  std::ifstream prom(prom_path), jsonl(json_path);
  std::string prom_first, json_first;
  std::getline(prom, prom_first);
  std::getline(jsonl, json_first);
  EXPECT_EQ(prom_first, "# TYPE iba_c counter");
  EXPECT_EQ(json_first.front(), '{');
}

TEST(Export, SnapshotFileToUnwritablePathReturnsFalse) {
  Registry registry;
  registry.counter("c").inc(1);
  const std::string dir = ::testing::TempDir() + "iba_no_such_dir_snap/";
  EXPECT_FALSE(
      iba::telemetry::write_snapshot_file(registry, dir + "snap.prom"));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Export, SnapshotFileReplacesExistingFileWhole) {
  Registry registry;
  registry.counter("c").inc(7);
  const std::string path = ::testing::TempDir() + "iba_snap_replace.prom";
  {
    // A longer previous file: no byte of it may survive the rewrite.
    std::ofstream old(path, std::ios::binary | std::ios::trunc);
    old << std::string(4096, 'x');
  }
  ASSERT_TRUE(iba::telemetry::write_snapshot_file(registry, path));
  std::ostringstream expected;
  iba::telemetry::write_prometheus(registry, expected);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream actual;
  actual << in.rdbuf();
  EXPECT_EQ(actual.str(), expected.str());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(PhaseTimersTest, AccumulatesAndReportsNsPerBall) {
  PhaseTimers timers;
  timers.add(Phase::kThrow, 1000, 10);
  timers.add(Phase::kThrow, 3000, 10);
  EXPECT_EQ(timers.ns(Phase::kThrow), 4000u);
  EXPECT_EQ(timers.balls(Phase::kThrow), 20u);
  EXPECT_EQ(timers.calls(Phase::kThrow), 2u);
  EXPECT_DOUBLE_EQ(timers.ns_per_ball(Phase::kThrow), 200.0);
  EXPECT_DOUBLE_EQ(timers.ns_per_ball(Phase::kDelete), 0.0);

  PhaseTimers other;
  other.add(Phase::kThrow, 1000, 5);
  timers.merge(other);
  EXPECT_EQ(timers.ns(Phase::kThrow), 5000u);
  EXPECT_EQ(timers.balls(Phase::kThrow), 25u);
}

TEST(PhaseTimersTest, ScopedTimerRecordsOnceAndStopDisarms) {
  PhaseTimers timers;
  {
    iba::telemetry::ScopedPhaseTimer timer(&timers, Phase::kAccept, 3);
    timer.stop();
    // Destructor must not double-record after stop().
  }
  EXPECT_EQ(timers.calls(Phase::kAccept), 1u);
  EXPECT_EQ(timers.balls(Phase::kAccept), 3u);
}

TEST(PhaseTimersTest, NullSinkIsInert) {
  iba::telemetry::ScopedPhaseTimer timer(nullptr, Phase::kDelete);
  timer.stop();  // must not crash
}

TEST(PhaseTimersTest, RecordedIntoRegistryAsCounters) {
  PhaseTimers timers;
  timers.add(Phase::kThrow, 500, 50);
  Registry registry;
  iba::telemetry::record_phase_timers(registry, timers);
  EXPECT_EQ(registry.counter("phase_throw_ns_total").value(), 500u);
  EXPECT_EQ(registry.counter("phase_throw_balls_total").value(), 50u);
  EXPECT_EQ(registry.counter("phase_throw_calls_total").value(), 1u);
  // Untouched phases are omitted.
  EXPECT_EQ(registry.counters().count("phase_delete_ns_total"), 0u);
}

TEST(RoundTraceTest, FifoOrderAndWraparound) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(lap * 10 + i));
    int out = -1;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
    EXPECT_FALSE(ring.try_pop(out));
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RoundTraceTest, CountsDropsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  EXPECT_FALSE(ring.try_push(4));
  EXPECT_EQ(ring.dropped(), 2u);
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);  // dropped events never displace accepted ones
  EXPECT_TRUE(ring.try_push(5));
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(RoundTraceTest, RoundsCapacityUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> tiny(1);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(RoundTraceTest, ConcurrentProducerConsumerDeliversEverythingAccepted) {
  RoundTrace trace(64);
  constexpr std::uint64_t kEvents = 20000;
  std::uint64_t consumed = 0;
  std::uint64_t consumed_rounds_sum = 0;

  std::thread consumer([&] {
    RoundEvent event;
    // Run until the producer's sentinel (round == 0 never occurs
    // otherwise; rounds start at 1).
    for (;;) {
      if (!trace.try_pop(event)) {
        std::this_thread::yield();
        continue;
      }
      if (event.metrics.round == 0) break;
      ++consumed;
      consumed_rounds_sum += event.metrics.round;
    }
  });

  std::uint64_t accepted = 0;
  std::uint64_t accepted_rounds_sum = 0;
  for (std::uint64_t r = 1; r <= kEvents; ++r) {
    RoundEvent event;
    event.metrics.round = r;
    if (trace.try_push(event)) {
      ++accepted;
      accepted_rounds_sum += r;
    }
  }
  // Only the producer mutates the drop counter, so this read is exact.
  const std::uint64_t dropped_in_loop = trace.dropped();
  RoundEvent sentinel;  // round == 0
  while (!trace.try_push(sentinel)) std::this_thread::yield();
  consumer.join();

  EXPECT_EQ(consumed, accepted);
  EXPECT_EQ(consumed_rounds_sum, accepted_rounds_sum);
  EXPECT_EQ(accepted + dropped_in_loop, kEvents);
}

TEST(SharedRegistryTest, ConcurrentWritersAllLand) {
  SharedRegistry shared;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&shared] {
      for (int i = 0; i < 1000; ++i) {
        shared.with([](Registry& r) { r.counter("hits_total").inc(); });
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(shared.snapshot().counter("hits_total").value(), 4000u);
}

}  // namespace
