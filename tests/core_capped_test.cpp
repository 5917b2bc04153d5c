// Unit and property tests of the CAPPED(c, λ) process: configuration
// contracts, conservation of balls, load/capacity invariants, FIFO
// semantics, determinism, and the c → ∞ degeneration to GREEDY[1].
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "rng/seed.hpp"

namespace {

using iba::core::BatchGreedy;
using iba::core::BatchGreedyConfig;
using iba::core::Capped;
using iba::core::CappedConfig;
using iba::core::Engine;
using iba::core::RoundMetrics;

CappedConfig make_config(std::uint32_t n, std::uint32_t c,
                         std::uint64_t lambda_n) {
  CappedConfig config;
  config.n = n;
  config.capacity = c;
  config.lambda_n = lambda_n;
  return config;
}

TEST(CappedConfig, FromRateComputesLambdaN) {
  const auto config = CappedConfig::from_rate(1024, 0.75, 2);
  EXPECT_EQ(config.lambda_n, 768u);
  EXPECT_DOUBLE_EQ(config.lambda(), 0.75);
}

TEST(CappedConfig, FromRateRejectsNonIntegralLambdaN) {
  EXPECT_THROW((void)CappedConfig::from_rate(10, 0.123, 1),
               iba::ContractViolation);
}

TEST(CappedConfig, ValidateRejectsBadParameters) {
  EXPECT_THROW(make_config(0, 1, 0).validate(), iba::ContractViolation);
  EXPECT_THROW(make_config(8, 0, 4).validate(), iba::ContractViolation);
  EXPECT_THROW(make_config(8, 1, 9).validate(), iba::ContractViolation);
  // c must fit the bin table's packed 16-bit queue length; the old
  // c = ∞ sentinel is out of range like any other oversized capacity.
  EXPECT_NO_THROW(make_config(8, 65535, 4).validate());
  EXPECT_THROW(make_config(8, 65536, 4).validate(), iba::ContractViolation);
  EXPECT_THROW(make_config(8, 0xFFFFFFFFu, 4).validate(),
               iba::ContractViolation);
}

TEST(Capped, EmptySystemStaysEmptyWithZeroArrivals) {
  Capped process(make_config(16, 2, 0), Engine(1));
  for (int i = 0; i < 10; ++i) {
    const auto m = process.step();
    EXPECT_EQ(m.thrown, 0u);
    EXPECT_EQ(m.deleted, 0u);
    EXPECT_EQ(m.pool_size, 0u);
    EXPECT_EQ(m.total_load, 0u);
  }
}

TEST(Capped, FirstRoundBasics) {
  // Round 1 starts with empty bins: every accepted ball has age 0, and
  // with capacity ≥ 1 every bin that received a request deletes a ball
  // of waiting time 0.
  Capped process(make_config(64, 1, 32), Engine(2));
  const auto m = process.step();
  EXPECT_EQ(m.round, 1u);
  EXPECT_EQ(m.generated, 32u);
  EXPECT_EQ(m.thrown, 32u);
  EXPECT_EQ(m.accepted, m.deleted);  // c = 1: accepted bins delete same round
  EXPECT_EQ(m.wait_max, 0u);
  EXPECT_EQ(m.pool_size + m.accepted, 32u);
  EXPECT_EQ(m.total_load, 0u);  // c = 1 empties every round
}

TEST(Capped, DeterministicGivenSeed) {
  Capped a(make_config(128, 3, 96), Engine(42));
  Capped b(make_config(128, 3, 96), Engine(42));
  for (int i = 0; i < 200; ++i) {
    const auto ma = a.step();
    const auto mb = b.step();
    EXPECT_EQ(ma.pool_size, mb.pool_size);
    EXPECT_EQ(ma.deleted, mb.deleted);
    EXPECT_EQ(ma.max_load, mb.max_load);
    EXPECT_EQ(ma.wait_max, mb.wait_max);
  }
}

TEST(Capped, DifferentSeedsDiverge) {
  Capped a(make_config(128, 2, 120), Engine(1));
  Capped b(make_config(128, 2, 120), Engine(2));
  bool diverged = false;
  for (int i = 0; i < 100 && !diverged; ++i) {
    diverged = a.step().pool_size != b.step().pool_size;
  }
  EXPECT_TRUE(diverged);
}

TEST(Capped, StepWithChoicesRejectsWrongCount) {
  Capped process(make_config(8, 1, 4), Engine(3));
  std::vector<std::uint32_t> too_few(3, 0);
  EXPECT_THROW((void)process.step_with_choices(too_few),
               iba::ContractViolation);
}

TEST(Capped, StepWithChoicesIsDeterministicAllocation) {
  // All balls choose bin 0 with capacity 2: exactly two accepted, the
  // rest stay in the pool; one deletion at the end of the round.
  Capped process(make_config(4, 2, 4), Engine(4));
  const std::vector<std::uint32_t> choices(4, 0);
  const auto m = process.step_with_choices(choices);
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.pool_size, 2u);
  EXPECT_EQ(m.deleted, 1u);
  EXPECT_EQ(process.load(0), 1u);
  EXPECT_EQ(process.load(1), 0u);
}

TEST(Capped, OldestFirstAcceptance) {
  // Force a survivor, then make old and new balls compete for one bin:
  // the survivor (older) must win the slot.
  Capped process(make_config(2, 1, 2), Engine(5));
  // Round 1: both balls to bin 0 → one accepted+deleted, one survivor.
  (void)process.step_with_choices(std::vector<std::uint32_t>{0, 0});
  ASSERT_EQ(process.pool_size(), 1u);
  // Round 2: survivor (label 1) and two new balls (label 2) all to bin 1.
  // Pool order is oldest-first, so choices[0] belongs to the survivor.
  const auto m = process.step_with_choices(std::vector<std::uint32_t>{1, 1, 1});
  EXPECT_EQ(m.accepted, 1u);
  EXPECT_EQ(m.deleted, 1u);
  // The deleted ball must be the survivor: age 1 at round 2.
  EXPECT_EQ(m.wait_max, 1u);
  EXPECT_EQ(m.pool_size, 2u);  // both new balls rejected
}

struct SweepParam {
  std::uint32_t n;
  std::uint32_t c;
  std::uint64_t lambda_n;
};

class CappedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CappedSweep, ConservationAndInvariantsOverManyRounds) {
  const auto param = GetParam();
  Capped process(make_config(param.n, param.c, param.lambda_n),
                 Engine(iba::rng::derive_seed(99, param.n + param.c)));
  std::uint64_t deleted_total = 0;
  for (int round = 1; round <= 400; ++round) {
    const auto m = process.step();
    deleted_total += m.deleted;

    // Conservation: generated = pool + in-bins + deleted, every round.
    EXPECT_EQ(process.generated_total(),
              m.pool_size + m.total_load + process.deleted_total());
    EXPECT_EQ(process.deleted_total(), deleted_total);

    // Per-round flow: thrown = pool(t−1) + generated = accepted + survivors.
    EXPECT_EQ(m.thrown, m.accepted + m.pool_size);

    // Capacity invariant.
    EXPECT_LE(m.max_load, param.c);

    // A bin deletes iff it is non-empty after allocation; deletions are
    // bounded by bins and by available balls.
    EXPECT_LE(m.deleted, param.n);
    EXPECT_LE(m.deleted, m.total_load + m.deleted);

    // Wait stats belong to deleted balls.
    EXPECT_EQ(m.wait_count, m.deleted);
  }
  // Per-bin load within capacity.
  for (std::uint32_t bin = 0; bin < param.n; ++bin) {
    EXPECT_LE(process.load(bin), param.c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, CappedSweep,
    ::testing::Values(SweepParam{16, 1, 8}, SweepParam{16, 1, 15},
                      SweepParam{64, 2, 48}, SweepParam{64, 4, 63},
                      SweepParam{256, 1, 192}, SweepParam{256, 3, 255},
                      SweepParam{1024, 2, 1023}, SweepParam{32, 8, 31},
                      SweepParam{128, 5, 64}, SweepParam{512, 2, 511}));

TEST(Capped, WaitRecorderMatchesRoundMetrics) {
  Capped process(make_config(32, 2, 24), Engine(7));
  double wait_sum = 0;
  std::uint64_t wait_count = 0, wait_max = 0;
  for (int i = 0; i < 100; ++i) {
    const auto m = process.step();
    wait_sum += m.wait_sum;
    wait_count += m.wait_count;
    wait_max = std::max(wait_max, m.wait_max);
  }
  EXPECT_EQ(process.waits().count(), wait_count);
  EXPECT_EQ(process.waits().max(), wait_max);
  if (wait_count > 0) {
    EXPECT_NEAR(process.waits().mean(),
                wait_sum / static_cast<double>(wait_count), 1e-9);
  }
}

TEST(Capped, ResetWaitStatsKeepsDynamics) {
  Capped process(make_config(32, 2, 24), Engine(8));
  for (int i = 0; i < 50; ++i) (void)process.step();
  const auto pool_before = process.pool_size();
  process.reset_wait_stats();
  EXPECT_EQ(process.waits().count(), 0u);
  EXPECT_EQ(process.pool_size(), pool_before);
}

TEST(Capped, FullSaturationLambdaOne) {
  // λ = 1: arrivals equal service capacity; pool grows slowly (Θ(√n)-ish
  // fluctuations) but the process must stay well-defined.
  Capped process(make_config(64, 2, 64), Engine(9));
  for (int i = 0; i < 200; ++i) {
    const auto m = process.step();
    EXPECT_EQ(m.generated, 64u);
    EXPECT_LE(m.max_load, 2u);
  }
  EXPECT_EQ(process.generated_total(), 200u * 64u);
}

TEST(Capped, InfiniteCapacityMatchesBatchGreedy1) {
  // CAPPED(∞, λ) ≡ GREEDY[1], which is why c = ∞ runs on BatchGreedy.
  // Capped takes only finite c, but a buffer no bin fills during the
  // run never rejects, so for that run it is c = ∞: same engine ⇒
  // identical trajectories. (Both draw exactly λn uniform bins per
  // round in arrival order: CAPPED's pool stays empty, so the thrown
  // balls are the new ones.)
  constexpr std::uint32_t kUnreached = 256;
  CappedConfig cc = make_config(64, kUnreached, 48);
  BatchGreedyConfig gc;
  gc.n = 64;
  gc.d = 1;
  gc.lambda_n = 48;
  Capped capped(cc, Engine(123));
  BatchGreedy greedy(gc, Engine(123));
  for (int i = 0; i < 300; ++i) {
    const auto mc = capped.step();
    const auto mg = greedy.step();
    ASSERT_EQ(mc.pool_size, 0u) << "round " << i;  // nothing rejected
    ASSERT_LT(mc.max_load + 1, kUnreached) << "round " << i;
    ASSERT_EQ(mc.total_load, mg.total_load) << "round " << i;
    ASSERT_EQ(mc.max_load, mg.max_load) << "round " << i;
    ASSERT_EQ(mc.deleted, mg.deleted) << "round " << i;
    ASSERT_EQ(mc.wait_max, mg.wait_max) << "round " << i;
  }
  EXPECT_EQ(capped.waits().count(), greedy.waits().count());
  EXPECT_NEAR(capped.waits().mean(), greedy.waits().mean(), 1e-12);
}

}  // namespace
