// Edge-of-the-parameter-space tests across all processes: the smallest
// systems (n = 1, n = 2), empty workloads, capacity larger than load,
// saturated systems — cheap configurations where off-by-one errors hide.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/adler_fifo.hpp"
#include "core/becchetti.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "core/modcapped.hpp"
#include "core/static_allocation.hpp"
#include "core/threshold.hpp"

namespace {

using namespace iba::core;

TEST(EdgeCases, SingleBinCapped) {
  // n = 1: every ball goes to the one bin; it accepts c per round and
  // deletes 1; with λn = 1 the system is critically loaded.
  CappedConfig config;
  config.n = 1;
  config.capacity = 2;
  config.lambda_n = 1;
  Capped process(config, Engine(1));
  for (int i = 0; i < 100; ++i) {
    const auto m = process.step();
    EXPECT_EQ(m.deleted, 1u);       // always non-empty after round 1
    EXPECT_LE(m.max_load, 2u);
  }
  EXPECT_EQ(process.generated_total(), 100u);
  EXPECT_EQ(process.deleted_total(), 100u - process.total_load());
}

TEST(EdgeCases, TwoBinsSaturated) {
  CappedConfig config;
  config.n = 2;
  config.capacity = 1;
  config.lambda_n = 2;
  Capped process(config, Engine(2));
  for (int i = 0; i < 200; ++i) {
    const auto m = process.step();
    EXPECT_LE(m.deleted, 2u);
    EXPECT_EQ(m.thrown, m.accepted + m.pool_size);
  }
}

TEST(EdgeCases, CappedZeroArrivalsWithPrefilledState) {
  // Drain behaviour: arrivals stop after 50 rounds; the system must
  // empty completely and stay empty.
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 48;
  Capped process(config, Engine(3));
  for (int i = 0; i < 50; ++i) (void)process.step();
  process.set_lambda_n(0);
  for (int i = 0; i < 200; ++i) (void)process.step();
  EXPECT_EQ(process.pool_size(), 0u);
  EXPECT_EQ(process.total_load(), 0u);
  EXPECT_EQ(process.generated_total(), process.deleted_total());
  const auto m = process.step();
  EXPECT_EQ(m.thrown, 0u);
  EXPECT_EQ(m.deleted, 0u);
}

TEST(EdgeCases, CapacityLargerThanSystemNeverRejects) {
  CappedConfig config;
  config.n = 16;
  config.capacity = 1000;  // effectively infinite for this horizon
  config.lambda_n = 12;
  Capped process(config, Engine(4));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(process.step().pool_size, 0u);
  }
}

TEST(EdgeCases, ModCappedSmallestSystem) {
  ModCappedConfig config;
  config.n = 2;
  config.capacity = 1;
  config.lambda_n = 1;
  config.m_star = 4;
  ModCapped process(config, Engine(5));
  for (int i = 0; i < 100; ++i) {
    const auto m = process.step();
    EXPECT_GE(m.thrown, 4u);
    EXPECT_LE(m.max_load, 1u);
  }
}

TEST(EdgeCases, BatchGreedyZeroArrivals) {
  BatchGreedyConfig config{.n = 8, .d = 2, .lambda_n = 0};
  BatchGreedy process(config, Engine(6));
  for (int i = 0; i < 50; ++i) {
    const auto m = process.step();
    EXPECT_EQ(m.thrown, 0u);
    EXPECT_EQ(m.total_load, 0u);
  }
}

TEST(EdgeCases, CappedGreedySingleBin) {
  CappedConfig config;
  config.n = 1;
  config.capacity = 3;
  config.lambda_n = 1;
  Capped process(config, Engine(7));
  GreedyChoiceSampler greedy(process, 2);
  process.set_bin_sampler(&greedy);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(process.step().max_load, 3u);
  }
}

TEST(EdgeCases, HeteroSingleBin) {
  CappedConfig config;
  config.n = 1;
  config.capacity = 5;
  config.lambda_n = 1;
  Capped process(config, Engine(8));
  const std::uint32_t caps[] = {5};
  process.set_bin_capacities(caps);
  for (int i = 0; i < 100; ++i) {
    const auto m = process.step();
    EXPECT_EQ(m.deleted, 1u);
    EXPECT_LE(m.max_load, 5u);
  }
}

TEST(EdgeCases, StaticAllocationsZeroBalls) {
  const auto oc = one_choice(8, 0, Engine(9));
  EXPECT_EQ(oc.max_load, 0u);
  EXPECT_EQ(oc.empty_bins, 8u);
  const auto gd = greedy_d(8, 0, 2, Engine(10));
  EXPECT_EQ(gd.max_load, 0u);
  const auto agl = always_go_left(8, 0, 2, Engine(11));
  EXPECT_EQ(agl.max_load, 0u);
}

TEST(EdgeCases, StaticAllocationSingleBin) {
  const auto result = one_choice(1, 100, Engine(12));
  EXPECT_EQ(result.max_load, 100u);
  EXPECT_EQ(result.empty_bins, 0u);
}

TEST(EdgeCases, ThresholdSingleBallSingleBin) {
  const auto result = run_threshold(1, 1, 1, Engine(13));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.max_load, 1u);
}

TEST(EdgeCases, BecchettiSingleBin) {
  auto process = RepeatedBallsIntoBins::uniform(1, Engine(14));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(process.step().max_load, 1u);  // the ball bounces in place
  }
}

TEST(EdgeCases, AdlerZeroArrivals) {
  AdlerFifoConfig config{.n = 8, .d = 2, .m = 0};
  AdlerFifo process(config, Engine(15));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(process.step().deleted, 0u);
  }
  EXPECT_EQ(process.in_flight(), 0u);
}

TEST(EdgeCases, WaitRecorderOnIdleSystem) {
  CappedConfig config;
  config.n = 4;
  config.capacity = 1;
  config.lambda_n = 0;
  Capped process(config, Engine(16));
  for (int i = 0; i < 20; ++i) (void)process.step();
  EXPECT_EQ(process.waits().count(), 0u);
  EXPECT_EQ(process.waits().max(), 0u);
  EXPECT_EQ(process.waits().quantile_upper_bound(0.99), 0u);
}

TEST(EdgeCases, SnapshotOfFreshProcess) {
  CappedConfig config;
  config.n = 8;
  config.capacity = 2;
  config.lambda_n = 4;
  Capped original(config, Engine(17));
  Capped restored(original.snapshot());  // snapshot before any step
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(original.step().pool_size, restored.step().pool_size);
  }
}

}  // namespace
