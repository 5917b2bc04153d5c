// Sweet-spot finder: the library as a capacity-planning tool.
//
// Given a server count and an arrival rate, sweeps the buffer size c,
// measures average/maximum waiting time for each, and reports the
// empirical optimum next to the paper's Θ(√ln(1/(1−λ))) prediction and
// the Theorem 2 guarantee at the chosen c.
//
//   $ ./sweet_spot_finder --n 8192 --lambda 0.99 [--cmax 10]
#include <cstdio>
#include <vector>

#include "analysis/bounds.hpp"
#include "artifact/artifact.hpp"
#include "core/capped.hpp"
#include "io/cli.hpp"
#include "io/table.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("sweet_spot_finder",
                       "find the waiting-time-optimal buffer size");
  parser.add_flag("n", "number of servers", "8192");
  parser.add_flag("lambda", "arrival rate in (0,1); lambda*n integral",
                  "0.96875");
  parser.add_flag("cmax", "largest buffer size to try", "10");
  parser.add_flag("rounds", "measured rounds per candidate", "800");
  parser.add_flag("seed", "random seed", "3");
  if (!parser.parse_or_exit(argc, argv)) return 0;

  const auto n = static_cast<std::uint32_t>(parser.get_uint("n"));
  const double lambda = parser.get_double("lambda");
  const auto c_max = static_cast<std::uint32_t>(parser.get_uint("cmax"));

  io::Table table({"c", "wait_avg", "wait_max", "pool/n", "thm2_wait_bound"});
  table.set_title("Buffer-size sweep");

  std::uint32_t best_c = 1;
  double best_wait = 0;
  for (std::uint32_t c = 1; c <= c_max; ++c) {
    // from_rate validates that lambda*n is integral.
    (void)core::CappedConfig::from_rate(n, lambda, c);
    scenario::Scenario scn;
    scn.n = n;
    scn.capacity = c;
    scn.arrival = scenario::ArrivalModel::constant(lambda);
    scn.burn_in = sim::suggested_burn_in(lambda);
    scn.rounds = parser.get_uint("rounds");
    scn.seed = parser.get_uint("seed");

    const artifact::Observables result =
        artifact::observables(scenario::run_scenario(scn).artifact);
    if (c == 1 || result.wait_mean < best_wait) {
      best_wait = result.wait_mean;
      best_c = c;
    }
    table.add_row({io::Table::format_number(c),
                   io::Table::format_number(result.wait_mean),
                   io::Table::format_number(
                       static_cast<double>(result.wait_max)),
                   io::Table::format_number(result.pool_over_n),
                   io::Table::format_number(
                       analysis::wait_bound_thm2(n, lambda, c))});
  }
  table.print();

  std::printf("\nempirical optimum : c = %u (avg wait %.2f rounds)\n",
              best_c, best_wait);
  std::printf("theory prediction : c ~ sqrt(ln(1/(1-lambda))) = %.2f "
              "-> c = %u\n",
              analysis::sweet_spot_prediction(lambda),
              analysis::suggest_capacity(lambda));
  return 0;
}
