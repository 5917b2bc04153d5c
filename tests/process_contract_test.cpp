// Cross-process contract suite: every round-based process in the
// library, driven through the Checked<P> flow-invariant wrapper and the
// generic runner, under one typed test. Guards the AllocationProcess
// concept's semantics as the zoo grows.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/adler_fifo.hpp"
#include "core/becchetti.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "core/modcapped.hpp"
#include "core/reallocation.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace {

using namespace iba;
using core::Engine;

// Factory types: each makes a small instance of one process and states
// which flow checks apply to it.
struct CappedFactory {
  using Process = core::Capped;
  static Process make() {
    core::CappedConfig config;
    config.n = 128;
    config.capacity = 2;
    config.lambda_n = 96;
    return Process(config, Engine(1));
  }
  static sim::CheckOptions checks() { return {}; }
};

struct ModCappedFactory {
  using Process = core::ModCapped;
  static Process make() {
    core::ModCappedConfig config;
    config.n = 64;
    config.capacity = 3;
    config.lambda_n = 48;
    config.m_star = 300;
    return Process(config, Engine(3));
  }
  static sim::CheckOptions checks() { return {}; }
};

struct BatchGreedyFactory {
  using Process = core::BatchGreedy;
  static Process make() {
    return Process({.n = 128, .d = 2, .lambda_n = 96}, Engine(4));
  }
  static sim::CheckOptions checks() { return {}; }
};

// CAPPED-GREEDY(2, 2, 3/4): Capped with two choices per ball. Owns its
// sampler, so it is neither copied nor moved (make() returns a prvalue).
class CappedGreedy : public core::Capped {
 public:
  CappedGreedy(const core::CappedConfig& config, Engine engine)
      : Capped(config, engine), greedy_(*this, 2) {
    set_bin_sampler(&greedy_);
  }
  CappedGreedy(const CappedGreedy&) = delete;
  CappedGreedy& operator=(const CappedGreedy&) = delete;

 private:
  core::GreedyChoiceSampler greedy_;
};

struct CappedGreedyFactory {
  using Process = CappedGreedy;
  static Process make() {
    core::CappedConfig config;
    config.n = 128;
    config.capacity = 2;
    config.lambda_n = 96;
    return Process(config, Engine(5));
  }
  static sim::CheckOptions checks() { return {}; }
};

// CAPPED over non-uniform bins: c_i cycles 1, 2, 3.
struct HeteroFactory {
  using Process = core::Capped;
  static Process make() {
    core::CappedConfig config;
    config.n = 128;
    config.capacity = 3;
    config.lambda_n = 96;
    Process process(config, Engine(6));
    std::vector<std::uint32_t> caps(config.n);
    for (std::uint32_t i = 0; i < config.n; ++i) caps[i] = 1 + i % 3;
    process.set_bin_capacities(caps);
    return process;
  }
  static sim::CheckOptions checks() { return {}; }
};

struct BecchettiFactory {
  using Process = core::RepeatedBallsIntoBins;
  static Process make() {
    return core::RepeatedBallsIntoBins::uniform(128, Engine(7));
  }
  static sim::CheckOptions checks() {
    sim::CheckOptions options;
    options.check_wait_counts = false;  // no per-ball waiting times
    return options;
  }
};

struct ReallocationFactory {
  using Process = core::SequentialReallocation;
  static Process make() {
    return core::SequentialReallocation::round_robin(128, 2, Engine(8));
  }
  static sim::CheckOptions checks() {
    sim::CheckOptions options;
    options.check_wait_counts = false;
    options.check_pool_flow = false;  // reallocation has no pool semantics
    options.check_load_flow = false;  // accepted = deleted = n by design
    return options;
  }
};

struct AdlerFactory {
  using Process = core::AdlerFifo;
  static Process make() {
    return Process({.n = 256, .d = 2, .m = 10}, Engine(9));
  }
  static sim::CheckOptions checks() {
    sim::CheckOptions options;
    options.check_load_flow = false;  // copies make load ≠ accepted − deleted
    return options;
  }
};

template <typename Factory>
class ProcessContract : public ::testing::Test {};

using Factories =
    ::testing::Types<CappedFactory, ModCappedFactory, BatchGreedyFactory,
                     CappedGreedyFactory, HeteroFactory, BecchettiFactory,
                     ReallocationFactory, AdlerFactory>;
TYPED_TEST_SUITE(ProcessContract, Factories);

TYPED_TEST(ProcessContract, RoundsAreSequentialAndFlowsConsistent) {
  auto process = TypeParam::make();
  sim::Checked checked(process, TypeParam::checks());
  for (int round = 1; round <= 250; ++round) {
    const auto m = checked.step();
    ASSERT_EQ(m.round, static_cast<std::uint64_t>(round));
    ASSERT_LE(m.deleted, process.n());
  }
  EXPECT_EQ(checked.violations(), 0u)
      << (checked.violation_log().empty() ? "?"
                                          : checked.violation_log()[0]);
}

TYPED_TEST(ProcessContract, WorksWithGenericRunner) {
  auto process = TypeParam::make();
  sim::RunSpec spec;
  spec.burn_in = 40;
  spec.measure_rounds = 60;
  const auto result = sim::run_experiment(process, spec);
  EXPECT_EQ(result.measured_rounds, 60u);
  EXPECT_EQ(result.pool.count(), 60u);
  EXPECT_GE(result.system_load.mean(), 0.0);
}

TYPED_TEST(ProcessContract, DeterministicAcrossInstances) {
  auto a = TypeParam::make();
  auto b = TypeParam::make();
  for (int round = 0; round < 100; ++round) {
    const auto ma = a.step();
    const auto mb = b.step();
    ASSERT_EQ(ma.total_load, mb.total_load) << "round " << round;
    ASSERT_EQ(ma.max_load, mb.max_load) << "round " << round;
    ASSERT_EQ(ma.deleted, mb.deleted) << "round " << round;
  }
}

}  // namespace
