// E4 — Figure 5 (right): average and maximum waiting time as a function
// of λ = 1 − 2^(−i), i ∈ [1, 10], for capacities c = 1 and c = 3,
// against the dashed reference ln(1/(1−λ))/c + log₂ log₂ n + c.
//
// Expected shape (paper): waiting time grows like ln(1/(1−λ))/c (linear
// in i with slope ln(2)/c); c = 3 beats c = 1 for large λ.
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_fig5_wait_vs_lambda",
                       "Figure 5 (right): waiting time vs injection rate");
  bench::add_standard_flags(parser);
  parser.add_flag("imax", "largest i in lambda = 1 - 2^-i", "10");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  // λn grows with i, so checking i_max rejects a grid that reaches
  // λ = 1 before any cell runs.
  const auto i_max = bench::read_flag(parser, "imax", 1, 63);
  (void)bench::paper_lambda_n(options.n, i_max);

  const std::vector<std::uint32_t> capacities = {1, 3};

  io::Table table({"i", "lambda", "c", "wait_avg", "wait_max", "reference",
                   "max_below_ref"});
  table.set_title(
      "Figure 5 (right): waiting time vs lambda = 1 - 2^-i");
  std::vector<std::vector<double>> csv_rows;

  for (const std::uint32_t c : capacities) {
    for (std::uint32_t i = 1; i <= i_max; ++i) {
      const double lambda = sim::lambda_one_minus_2pow(i);
      const auto result = bench::run_cell(
          options,
          bench::make_cell(options, c, bench::paper_lambda_n(options.n, i)));
      const double reference =
          analysis::fig5_reference(options.n, lambda, c);
      const auto wait_max = static_cast<double>(result.wait_max);
      table.add_row({io::Table::format_number(i),
                     io::Table::format_number(lambda),
                     io::Table::format_number(c),
                     io::Table::format_number(result.wait_mean),
                     io::Table::format_number(wait_max),
                     io::Table::format_number(reference),
                     wait_max <= reference ? "yes" : "NO"});
      csv_rows.push_back({static_cast<double>(i), lambda,
                          static_cast<double>(c), result.wait_mean, wait_max,
                          static_cast<double>(result.wait_p99), reference});
    }
  }

  bench::emit(table, options, "fig5_wait_vs_lambda",
              {"i", "lambda", "c", "wait_avg", "wait_max", "wait_p99_upper",
               "reference"},
              csv_rows);
  return 0;
}
