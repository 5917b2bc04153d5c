// Tests for the alias-table sampler and CAPPED over non-uniform bins
// (Capped::set_bin_capacities, optionally routed by a
// WeightedBinSampler): distribution correctness, contracts,
// conservation, exact equivalence with the homogeneous process at equal
// c_i, a pinned trajectory, and heterogeneity behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "fault/fault_plan.hpp"
#include "fault/schedule.hpp"
#include "rng/alias.hpp"
#include "rng/xoshiro256.hpp"

namespace {

using namespace iba;
using core::Capped;
using core::CappedConfig;
using core::Engine;
using core::WeightedBinSampler;

/// CAPPED over bins with capacities c_i, routed by `weights` (uniform
/// when empty). Owns its sampler; not movable (the process points at
/// it).
class HeteroCapped : public Capped {
 public:
  HeteroCapped(std::vector<std::uint32_t> capacities,
               std::uint64_t lambda_n, Engine engine,
               const std::vector<double>& weights = {})
      : Capped(config_for(capacities, lambda_n), engine) {
    set_bin_capacities(capacities);
    if (!weights.empty()) {
      routing_ = std::make_unique<WeightedBinSampler>(n(), weights);
      set_bin_sampler(routing_.get());
    }
  }
  HeteroCapped(const HeteroCapped&) = delete;
  HeteroCapped& operator=(const HeteroCapped&) = delete;

  static CappedConfig config_for(const std::vector<std::uint32_t>& caps,
                                 std::uint64_t lambda_n) {
    CappedConfig config;
    config.n = static_cast<std::uint32_t>(caps.size());
    config.capacity =
        caps.empty() ? 1 : *std::max_element(caps.begin(), caps.end());
    config.lambda_n = lambda_n;
    return config;
  }

 private:
  std::unique_ptr<WeightedBinSampler> routing_;
};

/// FNV-1a over every RoundMetrics field of `rounds` steps and the final
/// per-bin loads: an exact fingerprint of a trajectory.
std::uint64_t trajectory_digest(Capped& process, int rounds) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (int r = 0; r < rounds; ++r) {
    const core::RoundMetrics m = process.step();
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
  return h;
}

/// 48 bins: 12 of capacity 5, 12 of 2, 24 of 1.
std::vector<std::uint32_t> skewed_capacities() {
  std::vector<std::uint32_t> caps;
  for (std::uint32_t i = 0; i < 48; ++i) {
    caps.push_back(i < 12 ? 5 : (i < 24 ? 2 : 1));
  }
  return caps;
}

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(rng::AliasTable({}), ContractViolation);
  EXPECT_THROW(rng::AliasTable({1.0, -0.5}), ContractViolation);
  EXPECT_THROW(rng::AliasTable({0.0, 0.0}), ContractViolation);
  // A non-finite weight or sum would leave NaN slot probabilities.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(rng::AliasTable({1.0, inf}), ContractViolation);
  EXPECT_THROW(rng::AliasTable({nan, 1.0}), ContractViolation);
  const double huge = std::numeric_limits<double>::max();
  EXPECT_THROW(rng::AliasTable({huge, huge}), ContractViolation);
}

TEST(AliasTable, NormalizesWeights) {
  rng::AliasTable table({2.0, 6.0});
  EXPECT_NEAR(table.outcome_probabilities()[0], 0.25, 1e-12);
  EXPECT_NEAR(table.outcome_probabilities()[1], 0.75, 1e-12);
  EXPECT_EQ(table.size(), 2u);
}

TEST(AliasTable, SingleOutcomeAlwaysSampled) {
  rng::AliasTable table({5.0});
  rng::Xoshiro256pp engine(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(engine), 0u);
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 0.0, 10.0};
  rng::AliasTable table(weights);
  rng::Xoshiro256pp engine(2);
  std::vector<int> counts(weights.size(), 0);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) ++counts[table.sample(engine)];
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    EXPECT_NEAR(static_cast<double>(counts[i]) / draws, expected, 0.005)
        << "outcome " << i;
  }
  EXPECT_EQ(counts[4], 0);  // zero-weight outcome never sampled
}

TEST(AliasTable, UniformWeightsChiSquare) {
  rng::AliasTable table(std::vector<double>(8, 1.0));
  rng::Xoshiro256pp engine(3);
  std::vector<int> counts(8, 0);
  const int draws = 800000;
  for (int i = 0; i < draws; ++i) ++counts[table.sample(engine)];
  double chi2 = 0;
  const double expected = draws / 8.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 35.0);  // far beyond the 99.999th pct of chi2(7)
}

TEST(HeteroCappedConfig, Validation) {
  // No bins, or λ > 1: rejected by the process config.
  EXPECT_THROW(HeteroCapped({}, 0, Engine(1)), ContractViolation);
  EXPECT_THROW(HeteroCapped({2, 1, 1}, 4, Engine(1)), ContractViolation);
  // Every c_i must be >= 1.
  EXPECT_THROW(HeteroCapped({2, 0, 1}, 2, Engine(1)), ContractViolation);
  // Routing weights must match the bins.
  EXPECT_THROW(WeightedBinSampler(3, {1.0, 2.0}), ContractViolation);
  EXPECT_NO_THROW(HeteroCapped({2, 1, 1}, 2, Engine(1)));

  CappedConfig config = HeteroCapped::config_for({2, 1, 1}, 2);
  Capped process(config, Engine(1));
  const std::vector<std::uint32_t> two = {2, 1};
  EXPECT_THROW(process.set_bin_capacities(two), ContractViolation);
  // config.capacity must be the storage width max c_i.
  const std::vector<std::uint32_t> narrow = {1, 1, 1};
  EXPECT_THROW(process.set_bin_capacities(narrow), ContractViolation);
  const std::vector<std::uint32_t> caps3 = {2, 1, 1};
  EXPECT_NO_THROW(process.set_bin_capacities(caps3));
  // Per-bin capacities exclude a fault plan and capacity retuning.
  fault::FaultPlan plan(fault::parse_schedule("crash@2:bins=0,down=1"),
                        config.n, config.capacity, 1);
  EXPECT_THROW(process.set_fault_plan(&plan), ContractViolation);
  EXPECT_THROW(process.set_capacity(3), ContractViolation);
  // Detaching restores the uniform c; then a fault plan is welcome.
  process.set_bin_capacities({});
  EXPECT_NO_THROW(process.set_capacity(3));
  EXPECT_NO_THROW(process.set_fault_plan(&plan));
  EXPECT_THROW(process.set_bin_capacities(caps3), ContractViolation);

  CappedConfig controlled = config;
  controlled.control.policy = control::Policy::kSweetSpot;
  Capped with_controller(controlled, Engine(1));
  EXPECT_THROW(with_controller.set_bin_capacities(caps3), ContractViolation);
}

TEST(HeteroCapped, ConservationAndPerBinCapacity) {
  for (const auto kernel :
       {core::RoundKernel::kScalar, core::RoundKernel::kBinMajor}) {
    CappedConfig config =
        HeteroCapped::config_for({1, 2, 3, 4, 1, 2, 3, 4}, 6);
    config.kernel = kernel;
    Capped process(config, Engine(4));
    const std::vector<std::uint32_t> caps = {1, 2, 3, 4, 1, 2, 3, 4};
    process.set_bin_capacities(caps);
    for (int i = 0; i < 500; ++i) {
      const auto m = process.step();
      ASSERT_EQ(m.thrown, m.accepted + m.pool_size);
      ASSERT_EQ(process.generated_total(),
                process.pool_size() + process.total_load() +
                    process.deleted_total());
      for (std::uint32_t bin = 0; bin < 8; ++bin) {
        // End-of-round load: at most c_i − 1 after a non-empty bin serves.
        ASSERT_LE(process.load(bin), caps[bin]);
      }
    }
  }
}

TEST(HeteroCapped, UniformCaseBehavesLikeCapped) {
  // Equal capacities and uniform routing are CAPPED(c, λ) exactly: the
  // same seed gives the same trajectory, round for round.
  const std::uint32_t n = 1024;
  CappedConfig config;
  config.n = n;
  config.capacity = 2;
  config.lambda_n = 960;
  Capped capped(config, Engine(5));
  HeteroCapped hetero(std::vector<std::uint32_t>(n, 2), 960, Engine(5));
  for (int round = 0; round < 600; ++round) {
    const auto mc = capped.step();
    const auto mh = hetero.step();
    ASSERT_EQ(mc.pool_size, mh.pool_size) << "round " << round;
    ASSERT_EQ(mc.accepted, mh.accepted) << "round " << round;
    ASSERT_EQ(mc.deleted, mh.deleted) << "round " << round;
    ASSERT_EQ(mc.total_load, mh.total_load) << "round " << round;
    ASSERT_EQ(mc.max_load, mh.max_load) << "round " << round;
    ASSERT_EQ(mc.empty_bins, mh.empty_bins) << "round " << round;
    ASSERT_EQ(mc.wait_sum, mh.wait_sum) << "round " << round;
    ASSERT_EQ(mc.wait_max, mh.wait_max) << "round " << round;
  }
  const core::CappedSnapshot a = capped.snapshot();
  const core::CappedSnapshot b = hetero.snapshot();
  EXPECT_EQ(a.engine_state, b.engine_state);
  EXPECT_EQ(a.bins, b.bins);
  EXPECT_EQ(capped.waits().count(), hetero.waits().count());
  EXPECT_EQ(capped.waits().mean(), hetero.waits().mean());
}

TEST(HeteroCapped, PinnedTrajectorySkewedCapacitiesAndWeights) {
  // Recorded from the standalone HeteroCapped class this configuration
  // replaced: skewed capacities with capacity-proportional routing, and
  // the same capacities under uniform routing.
  const auto caps = skewed_capacities();
  const std::vector<double> weights(caps.begin(), caps.end());
  HeteroCapped weighted(caps, 44, Engine(2021), weights);
  EXPECT_EQ(trajectory_digest(weighted, 300), 0xa540dfff6476e1dfull);
  EXPECT_EQ(weighted.deleted_total(), 12992u);
  EXPECT_EQ(weighted.waits().max(), 11u);
  EXPECT_EQ(weighted.total_load(), 60u);

  HeteroCapped uniform(caps, 44, Engine(2021));
  EXPECT_EQ(trajectory_digest(uniform, 300), 0xe3334729dcf9a397ull);
  EXPECT_EQ(uniform.deleted_total(), 13098u);
  EXPECT_EQ(uniform.waits().max(), 8u);
  EXPECT_EQ(uniform.total_load(), 52u);
}

TEST(HeteroCapped, WeightedRoutingLoadsBigBinsMore) {
  // Two classes of bins (capacity 1 vs 4) with capacity-proportional
  // weights: the big bins must carry proportionally more deletions.
  const std::uint32_t n = 512;
  std::vector<std::uint32_t> caps(n, 1);
  std::vector<double> weights(n, 1.0);
  for (std::uint32_t i = 0; i < n / 2; ++i) {
    caps[i] = 4;
    weights[i] = 4.0;
  }
  HeteroCapped process(caps, n * 3 / 4, Engine(7), weights);
  for (int i = 0; i < 2000; ++i) (void)process.step();
  double big_load = 0, small_load = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    (i < n / 2 ? big_load : small_load) +=
        static_cast<double>(process.load(i));
  }
  EXPECT_GT(big_load, 2.0 * small_load);
}

TEST(HeteroCapped, SkewedWeightsIncreaseWaitingTimes) {
  // Misrouted load (heavy weight on a few bins) hurts: compare uniform
  // routing against a badly skewed one at equal capacity.
  auto max_wait = [](const std::vector<double>& weights, std::uint64_t seed) {
    HeteroCapped process(std::vector<std::uint32_t>(256, 2), 192,
                         Engine(seed), weights);
    for (int i = 0; i < 3000; ++i) (void)process.step();
    return process.waits().mean();
  };
  std::vector<double> skewed(256, 1.0);
  for (int i = 0; i < 16; ++i) skewed[i] = 30.0;  // hot spots
  const double uniform_wait = max_wait({}, 8);
  const double skewed_wait = max_wait(skewed, 9);
  EXPECT_GT(skewed_wait, 1.5 * uniform_wait);
}

TEST(HeteroCapped, DeterministicGivenSeed) {
  const auto caps = skewed_capacities();
  const std::vector<double> weights(caps.begin(), caps.end());
  HeteroCapped a(caps, 40, Engine(10), weights);
  HeteroCapped b(caps, 40, Engine(10), weights);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.step().pool_size, b.step().pool_size);
  }
}

}  // namespace
