// E2 — Figure 4 (right): normalized pool size as a function of the
// injection rate λ = 1 − 2^(−i), i ∈ [1, 10], for capacities c = 1 and
// c = 3, against the dashed reference (1/c)·ln(1/(1−λ)) + 1.
//
// Expected shape (paper): the pool grows like ln(1/(1−λ))/c — linear in
// i with slope ln(2)/c — and stays below the reference curve.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "io/plot.hpp"
#include "stats/linear_fit.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser(
      "bench_fig4_pool_vs_lambda",
      "Figure 4 (right): normalized pool size vs injection rate");
  bench::add_standard_flags(parser);
  parser.add_flag("imax", "largest i in lambda = 1 - 2^-i", "10");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  // The slope fit needs two points; λn grows with i, so checking i_max
  // rejects a grid that reaches λ = 1 before any cell runs.
  const auto i_max = bench::read_flag(parser, "imax", 2, 63);
  (void)bench::paper_lambda_n(options.n, i_max);

  const std::vector<std::uint32_t> capacities = {1, 3};

  io::Table table(
      {"i", "lambda", "c", "pool/n", "reference", "below_ref"});
  table.set_title(
      "Figure 4 (right): normalized pool size vs lambda = 1 - 2^-i");
  std::vector<std::vector<double>> csv_rows;

  io::AsciiPlot plot(56, 14);
  plot.set_title("Figure 4 (right): pool/n vs i  (lambda = 1 - 2^-i)");
  plot.set_x_label("i");

  for (const std::uint32_t c : capacities) {
    std::vector<double> plot_is, plot_pools;
    for (std::uint32_t i = 1; i <= i_max; ++i) {
      const double lambda = sim::lambda_one_minus_2pow(i);
      const auto cell =
          bench::make_cell(options, c, bench::paper_lambda_n(options.n, i));
      const double measured = bench::run_cell(options, cell).pool_over_n;
      const double reference = analysis::fig4_reference(lambda, c);
      table.add_row({io::Table::format_number(i),
                     io::Table::format_number(lambda),
                     io::Table::format_number(c),
                     io::Table::format_number(measured),
                     io::Table::format_number(reference),
                     measured <= reference ? "yes" : "NO"});
      csv_rows.push_back({static_cast<double>(i), lambda,
                          static_cast<double>(c), measured, reference});
      plot_is.push_back(i);
      plot_pools.push_back(measured);
    }
    plot.add_series("c=" + std::to_string(c), plot_is, plot_pools);

    // The paper's law pool/n ≈ ln(1/(1−λ))/c + const is linear in i with
    // slope ln(2)/c; fit the last min(5, imax) points and report the
    // match.
    const auto tail = static_cast<std::ptrdiff_t>(std::min(5u, i_max));
    std::vector<double> tail_is(plot_is.end() - tail, plot_is.end());
    std::vector<double> tail_pools(plot_pools.end() - tail, plot_pools.end());
    const auto fit = stats::fit_line(tail_is, tail_pools);
    std::printf("slope check c=%u: measured %.4f vs predicted ln(2)/c = "
                "%.4f (R^2 = %.4f)\n",
                c, fit.slope, std::log(2.0) / c, fit.r_squared);
  }
  std::printf("\n");
  plot.print();
  std::printf("\n");

  bench::emit(table, options, "fig4_pool_vs_lambda",
              {"i", "lambda", "c", "pool_over_n", "reference"},
              csv_rows);
  return 0;
}
