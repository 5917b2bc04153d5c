// E17 — non-uniform bins (toward the paper's reference [6]): with a
// fixed total buffer budget Σc_i = c̄·n, does the *distribution* of
// capacities matter, and does capacity-proportional routing help?
//
// Measured shape (a genuinely instructive negative result): in this
// model every bin serves exactly ONE ball per round regardless of its
// buffer size — buffers add acceptance smoothing, not service rate. So
// (i) concentrating capacity in few bins under uniform routing wastes
// it (pool/waits degrade vs the homogeneous farm), and (ii)
// capacity-proportional routing makes things strictly WORSE: it pushes
// arrival rate ∝ c_i onto bins whose service rate is still 1/round,
// overloading exactly the bins with the big buffers. The homogeneous
// farm wins at every capacity budget; "bigger buffer" must never be
// conflated with "faster server" when provisioning by this model.
//
// Each scenario is CAPPED with per-bin capacities
// (Capped::set_bin_capacities) and, for weighted routing, a
// WeightedBinSampler over the capacities.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"

namespace {

struct Scenario {
  std::string name;
  std::vector<std::uint32_t> capacities;  ///< c_i per bin
  std::vector<double> weights;            ///< routing weights; empty = uniform

  [[nodiscard]] std::uint64_t total_capacity() const {
    return std::accumulate(capacities.begin(), capacities.end(),
                           std::uint64_t{0});
  }
};

Scenario make_scenario(std::string name, std::uint32_t n) {
  return {std::move(name), std::vector<std::uint32_t>(n, 0), {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_hetero",
                       "capacity distribution and weighted routing");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  const std::uint32_t n = options.n;
  const std::uint64_t lambda_n =
      static_cast<std::uint64_t>(n) - (n >> 6);  // λ = 1 − 2^−6

  // All scenarios have total budget 2n.
  std::vector<Scenario> scenarios;
  {
    Scenario s = make_scenario("homogeneous c=2", n);
    s.capacities.assign(n, 2);
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = make_scenario("skewed 4/1 (uniform routing)", n);
    for (std::uint32_t i = 0; i < n; ++i) {
      s.capacities[i] = i < n / 3 ? 4 : 1;
    }
    while (s.total_capacity() < 2ull * n) {
      s.capacities[n - 1]++;  // absorb rounding in one bin
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s =
        make_scenario("skewed 4/1 (capacity-proportional routing)", n);
    s.weights.assign(n, 1.0);
    for (std::uint32_t i = 0; i < n; ++i) {
      s.capacities[i] = i < n / 3 ? 4 : 1;
      s.weights[i] = s.capacities[i];
    }
    while (s.total_capacity() < 2ull * n) {
      s.capacities[n - 1]++;
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s =
        make_scenario("extreme 16/1 (capacity-proportional routing)", n);
    s.weights.assign(n, 1.0);
    for (std::uint32_t i = 0; i < n; ++i) {
      s.capacities[i] = i < n / 15 ? 16 : 1;
      s.weights[i] = s.capacities[i];
    }
    scenarios.push_back(std::move(s));
  }

  io::Table table({"scenario", "total_cap/n", "pool/n", "wait_avg",
                   "wait_max"});
  table.set_title("Non-uniform bins, lambda = 1-2^-6, budget ~ 2n");
  std::vector<std::vector<double>> csv_rows;
  double scenario_id = 0;

  for (Scenario& scenario : scenarios) {
    std::fprintf(stderr, "[cell] %s ...\n", scenario.name.c_str());
    // A Scenario has one capacity for every bin, so this runs on
    // run_experiment.
    const auto cell = bench::make_cell(
        options,
        *std::max_element(scenario.capacities.begin(),
                          scenario.capacities.end()),
        lambda_n);
    core::Capped process(bench::capped_cell(options, cell),
                         core::Engine(options.seed));
    process.set_bin_capacities(scenario.capacities);
    std::optional<core::WeightedBinSampler> routing;
    if (!scenario.weights.empty()) {
      process.set_bin_sampler(&routing.emplace(n, scenario.weights));
    }
    const auto result = sim::run_experiment(process, bench::run_spec(cell));

    const double budget =
        static_cast<double>(scenario.total_capacity()) / n;
    table.add_row({scenario.name, io::Table::format_number(budget),
                   io::Table::format_number(result.normalized_pool.mean()),
                   io::Table::format_number(result.wait_mean),
                   io::Table::format_number(
                       static_cast<double>(result.wait_max))});
    csv_rows.push_back({scenario_id++, budget,
                        result.normalized_pool.mean(), result.wait_mean,
                        static_cast<double>(result.wait_max)});
  }

  bench::emit(table, options, "hetero",
              {"scenario", "total_cap_over_n", "pool_over_n", "wait_avg",
               "wait_max"},
              csv_rows);
  return 0;
}
