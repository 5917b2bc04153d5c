// Tests for CAPPED-GREEDY(c, d, λ) — CAPPED with a GreedyChoiceSampler:
// contracts, exact d = 1 degeneration to CAPPED, a pinned d = 2
// trajectory, conservation, and the expected benefit of the second
// choice.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "core/bin_samplers.hpp"
#include "core/capped.hpp"

namespace {

using namespace iba::core;

CappedConfig make_config(std::uint32_t n, std::uint32_t c,
                         std::uint64_t lambda_n) {
  CappedConfig config;
  config.n = n;
  config.capacity = c;
  config.lambda_n = lambda_n;
  return config;
}

/// CAPPED with d choices per ball. Owns its sampler; not movable (the
/// process points at it).
class CappedGreedy : public Capped {
 public:
  CappedGreedy(const CappedConfig& config, std::uint32_t d, Engine engine)
      : Capped(config, engine), greedy_(*this, d) {
    set_bin_sampler(&greedy_);
  }
  CappedGreedy(const CappedGreedy&) = delete;
  CappedGreedy& operator=(const CappedGreedy&) = delete;

 private:
  GreedyChoiceSampler greedy_;
};

TEST(CappedGreedyConfig, Validation) {
  EXPECT_THROW(CappedGreedy(make_config(0, 1, 0), 2, Engine(1)),
               iba::ContractViolation);
  EXPECT_THROW(CappedGreedy(make_config(8, 0, 4), 2, Engine(1)),
               iba::ContractViolation);
  EXPECT_THROW(CappedGreedy(make_config(8, 1, 4), 0, Engine(1)),
               iba::ContractViolation);
  EXPECT_THROW(CappedGreedy(make_config(8, 1, 9), 2, Engine(1)),
               iba::ContractViolation);
  EXPECT_NO_THROW(CappedGreedy(make_config(8, 2, 6), 2, Engine(1)));
}

TEST(CappedGreedy, DOneMatchesCappedExactly) {
  // With d = 1 both processes draw one uniform bin per pool ball in the
  // same order from the same engine: trajectories must coincide.
  Capped capped(make_config(256, 2, 192), Engine(77));
  CappedGreedy greedy(make_config(256, 2, 192), 1, Engine(77));
  for (int round = 0; round < 300; ++round) {
    const auto mc = capped.step();
    const auto mg = greedy.step();
    ASSERT_EQ(mc.pool_size, mg.pool_size) << "round " << round;
    ASSERT_EQ(mc.deleted, mg.deleted) << "round " << round;
    ASSERT_EQ(mc.max_load, mg.max_load) << "round " << round;
    ASSERT_EQ(mc.wait_max, mg.wait_max) << "round " << round;
  }
  EXPECT_EQ(capped.waits().count(), greedy.waits().count());
  EXPECT_NEAR(capped.waits().mean(), greedy.waits().mean(), 1e-12);
  EXPECT_EQ(capped.engine_state(), greedy.engine_state());
}

TEST(CappedGreedy, PinnedTrajectoryTwoChoices) {
  // Recorded from the standalone CappedGreedy class this sampler
  // replaced: FNV-1a over every RoundMetrics field of 300 rounds and the
  // final per-bin loads, on both kernels.
  for (const auto kernel : {RoundKernel::kScalar, RoundKernel::kBinMajor}) {
    CappedConfig config = make_config(64, 2, 60);
    config.kernel = kernel;
    CappedGreedy process(config, 2, Engine(2021));
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    for (int r = 0; r < 300; ++r) {
      const RoundMetrics m = process.step();
      for (const std::uint64_t v : std::initializer_list<std::uint64_t>{
               m.round, m.generated, m.thrown, m.accepted, m.deleted,
               m.pool_size, m.total_load, m.max_load, m.empty_bins,
               m.wait_count, static_cast<std::uint64_t>(m.wait_sum),
               m.wait_max}) {
        mix(v);
      }
    }
    for (std::uint32_t bin = 0; bin < process.n(); ++bin) {
      mix(process.load(bin));
    }
    EXPECT_EQ(h, 0x07b5578472f1d835ull) << to_string(kernel);
    EXPECT_EQ(process.deleted_total(), 17945u) << to_string(kernel);
    EXPECT_EQ(process.waits().max(), 3u) << to_string(kernel);
    EXPECT_EQ(process.total_load(), 35u) << to_string(kernel);
  }
}

TEST(CappedGreedy, ConservationAndCapacityInvariants) {
  CappedGreedy process(make_config(128, 3, 120), 2, Engine(5));
  for (int i = 0; i < 400; ++i) {
    const auto m = process.step();
    ASSERT_EQ(m.thrown, m.accepted + m.pool_size);
    ASSERT_LE(m.max_load, 3u);
    ASSERT_EQ(process.generated_total(),
              process.pool_size() + process.total_load() +
                  process.deleted_total());
  }
  for (std::uint32_t bin = 0; bin < 128; ++bin) {
    EXPECT_LE(process.load(bin), 3u);
  }
}

TEST(CappedGreedy, SecondChoiceShrinksPool) {
  // d = 2 spreads requests away from full bins, so fewer balls bounce
  // back into the pool at high load.
  auto mean_pool = [](std::uint32_t d) {
    CappedGreedy process(make_config(1024, 1, 1008), d, Engine(6));
    for (int i = 0; i < 1500; ++i) (void)process.step();
    double pool = 0;
    for (int i = 0; i < 500; ++i) {
      pool += static_cast<double>(process.step().pool_size);
    }
    return pool / 500.0;
  };
  const double d1 = mean_pool(1);
  const double d2 = mean_pool(2);
  EXPECT_LT(d2, d1);
}

TEST(CappedGreedy, DeterministicGivenSeed) {
  CappedGreedy a(make_config(64, 2, 48), 2, Engine(9));
  CappedGreedy b(make_config(64, 2, 48), 2, Engine(9));
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.step().pool_size, b.step().pool_size);
  }
}

TEST(CappedGreedy, ResetWaitStats) {
  CappedGreedy process(make_config(64, 2, 48), 2, Engine(10));
  for (int i = 0; i < 50; ++i) (void)process.step();
  EXPECT_GT(process.waits().count(), 0u);
  process.reset_wait_stats();
  EXPECT_EQ(process.waits().count(), 0u);
}

}  // namespace
