// Process zoo: a guided tour of every allocation process in the library,
// run on one shared workload (n bins, λ = 7/8) and summarized side by
// side — CAPPED at three capacities, the c = ∞ degeneration, the batch
// GREEDY[d] baselines of PODC'16, plus the static/self-stabilizing
// related-work processes with their own natural workloads.
//
//   $ ./process_zoo [--n 4096]
#include <cmath>
#include <cstdio>
#include <string>

#include "core/adler_fifo.hpp"
#include "core/becchetti.hpp"
#include "core/capped.hpp"
#include "core/collision.hpp"
#include "core/greedy.hpp"
#include "core/reallocation.hpp"
#include "core/static_allocation.hpp"
#include "core/supermarket.hpp"
#include "core/threshold.hpp"
#include "io/cli.hpp"
#include "io/table.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"

namespace {

using namespace iba;

sim::RunSpec shared_spec(double lambda) {
  sim::RunSpec spec;
  spec.burn_in = sim::suggested_burn_in(lambda);
  spec.measure_rounds = 600;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("process_zoo",
                       "every process in the library on one workload");
  parser.add_flag("n", "number of bins", "4096");
  parser.add_flag("seed", "random seed", "11");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto n = static_cast<std::uint32_t>(parser.get_uint("n"));
  const auto seed = parser.get_uint("seed");
  const std::uint64_t lambda_n = static_cast<std::uint64_t>(n) * 7 / 8;
  const double lambda = 7.0 / 8.0;

  std::printf("infinite processes: n=%u, lambda=7/8, 600 measured rounds\n\n",
              n);
  io::Table table({"process", "wait_avg", "wait_max", "pool/n", "load/n",
                   "max_load"});
  table.set_title("Infinite parallel processes");

  for (const std::uint32_t c : {1u, 2u, 4u}) {
    core::CappedConfig config;
    config.n = n;
    config.capacity = c;
    config.lambda_n = lambda_n;
    core::Capped process(config, core::Engine(seed));
    const auto r = sim::run_experiment(process, shared_spec(lambda));
    table.add_row({"CAPPED(c=" + std::to_string(c) + ")",
                   io::Table::format_number(r.wait_mean),
                   io::Table::format_number(static_cast<double>(r.wait_max)),
                   io::Table::format_number(r.normalized_pool.mean()),
                   io::Table::format_number(
                       (r.system_load.mean() - r.pool.mean()) / n),
                   io::Table::format_number(r.max_load.mean())});
  }
  for (const std::uint32_t d : {1u, 2u}) {
    core::BatchGreedyConfig config;
    config.n = n;
    config.d = d;
    config.lambda_n = lambda_n;
    core::BatchGreedy process(config, core::Engine(seed));
    const auto r = sim::run_experiment(process, shared_spec(lambda));
    table.add_row({"GREEDY[" + std::to_string(d) + "] batch",
                   io::Table::format_number(r.wait_mean),
                   io::Table::format_number(static_cast<double>(r.wait_max)),
                   "0",
                   io::Table::format_number(r.system_load.mean() / n),
                   io::Table::format_number(r.max_load.mean())});
  }
  {
    core::AdlerFifoConfig config{.n = n, .d = 2, .m = n / 20};
    core::AdlerFifo process(config, core::Engine(seed));
    const auto r = sim::run_experiment(process, shared_spec(0.5));
    table.add_row({"Adler FIFO[d=2] (m=n/20)",
                   io::Table::format_number(r.wait_mean),
                   io::Table::format_number(static_cast<double>(r.wait_max)),
                   "0",
                   io::Table::format_number(r.system_load.mean() / n),
                   io::Table::format_number(r.max_load.mean())});
  }
  table.print();

  std::printf("\nstatic / self-stabilizing related work:\n\n");
  io::Table zoo({"process", "result"});
  zoo.set_title("One-shot anchors");
  {
    const auto thr = core::run_threshold(n, n, 1, core::Engine(seed));
    zoo.add_row({"THRESHOLD[1], m=n",
                 "done in " + std::to_string(thr.rounds) + " rounds (lnln n=" +
                     io::Table::format_number(std::log(std::log(n))) +
                     "), max load " + std::to_string(thr.max_load)});
  }
  {
    const auto oc = core::one_choice(n, n, core::Engine(seed + 1));
    const auto g2 = core::greedy_d(n, n, 2, core::Engine(seed + 2));
    zoo.add_row({"static 1-choice, m=n",
                 "max load " + std::to_string(oc.max_load) + " (ln/lnln=" +
                     io::Table::format_number(std::log(n) /
                                              std::log(std::log(n))) +
                     ")"});
    zoo.add_row({"static GREEDY[2], m=n",
                 "max load " + std::to_string(g2.max_load) +
                     " (the power of two choices)"});
  }
  {
    const auto left = core::always_go_left(n, n, 2, core::Engine(seed + 7));
    zoo.add_row({"ALWAYS-GO-LEFT[2], m=n",
                 "max load " + std::to_string(left.max_load) +
                     " (asymmetric tie-break beats GREEDY[2])"});
  }
  {
    const auto collision =
        core::run_collision_protocol(n, n, 2, 2, core::Engine(seed + 8));
    zoo.add_row({"Stemann collision (bound 2)",
                 "done in " + std::to_string(collision.rounds) +
                     " rounds, max load " +
                     std::to_string(collision.max_load)});
  }
  {
    auto chain =
        core::SequentialReallocation::round_robin(n, 2, core::Engine(seed + 9));
    std::uint64_t worst = 0;
    for (int round = 0; round < 100; ++round) {
      worst = std::max(worst, chain.step().max_load);
    }
    zoo.add_row({"sequential reallocation[d=2]",
                 "max load " + std::to_string(worst) +
                     " over 100n single-ball steps"});
  }
  {
    core::SupermarketConfig config;
    config.n = n;
    config.d = 2;
    config.lambda = 0.9;
    core::Supermarket system(config, core::Engine(seed + 10));
    system.advance(150.0);
    zoo.add_row({"supermarket (continuous, d=2)",
                 "Pr[q>=3] = " +
                     io::Table::format_number(system.tail_fraction(3)) +
                     " vs fixed point " +
                     io::Table::format_number(
                         core::Supermarket::fixed_point_tail(0.9, 2, 3))});
  }
  {
    auto process = core::RepeatedBallsIntoBins::adversarial(
        n, core::Engine(seed + 3));
    std::uint64_t rounds = 0;
    const auto target =
        static_cast<std::uint64_t>(2 * std::log2(static_cast<double>(n)));
    while (process.max_load() > target && rounds < 50ull * n) {
      (void)process.step();
      ++rounds;
    }
    zoo.add_row({"repeated balls-into-bins",
                 "adversarial start -> max load " +
                     std::to_string(process.max_load()) + " after " +
                     std::to_string(rounds) + " rounds (O(n))"});
  }
  zoo.print();
  return 0;
}
