// E12 — arrival-model robustness (paper footnote 2): the theorems are
// stated for exactly λn arrivals per round but "can be adjusted to a
// probabilistic ball generation process". This bench runs CAPPED under
// deterministic, Binomial(n, λ) and Poisson(λn) arrivals on the same
// grid and reports how far the stochastic variants drift.
//
// Expected shape: pool and waiting time essentially coincide across the
// three models (differences within a few percent), with Poisson the
// most variable tail.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_arrival_models",
                       "CAPPED under deterministic/binomial/poisson arrivals");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);

  const std::vector<std::uint32_t> lambda_exponents = {2, 6};
  const std::vector<std::uint32_t> capacities = {1, 3};
  const std::vector<core::ArrivalModel> models = {
      core::ArrivalModel::kDeterministic, core::ArrivalModel::kBinomial,
      core::ArrivalModel::kPoisson};

  io::Table table({"lambda", "c", "arrivals", "pool/n", "wait_avg",
                   "wait_max"});
  table.set_title("Arrival-model robustness (footnote 2)");
  std::vector<std::vector<double>> csv_rows;

  for (const std::uint32_t i : lambda_exponents) {
    for (const std::uint32_t c : capacities) {
      for (const auto model : models) {
        scenario::Scenario scn = bench::make_cell(
            options, c, bench::paper_lambda_n(options.n, i));
        scn.arrival.distribution = model;
        scn.name += " arrivals=" + std::string(core::to_string(model));
        const auto result = bench::run_cell(options, scn);

        const double lambda = scn.arrival.lambda;
        table.add_row({io::Table::format_number(lambda),
                       io::Table::format_number(c),
                       std::string(core::to_string(model)),
                       io::Table::format_number(result.pool_over_n),
                       io::Table::format_number(result.wait_mean),
                       io::Table::format_number(
                           static_cast<double>(result.wait_max))});
        csv_rows.push_back({lambda, static_cast<double>(c),
                            static_cast<double>(model), result.pool_over_n,
                            result.wait_mean,
                            static_cast<double>(result.wait_max)});
      }
    }
  }

  bench::emit(table, options, "arrival_models",
              {"lambda", "c", "model", "pool_over_n", "wait_avg",
               "wait_max"},
              csv_rows);
  return 0;
}
