// E3 — Figure 5 (left): average and maximum waiting time as a function
// of the capacity c ∈ [1, 5] for λ = 1 − 1/2², 1 − 1/2^10, 1 − 1/2^13,
// against the dashed reference ln(1/(1−λ))/c + log₂ log₂ n + c.
//
// Expected shape (paper): both curves dip around c = 2…3 (the sweet
// spot) and the maximum stays below the reference.
//
// λ = 1 − 2^(−13) requires n ≥ 2^13 for λn to be integral; the series is
// skipped (with a notice) for smaller --n.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "io/plot.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_fig5_wait_vs_c",
                       "Figure 5 (left): waiting time vs capacity");
  bench::add_standard_flags(parser);
  parser.add_flag("cmax", "largest capacity to sweep", "5");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  const auto c_max = bench::read_flag(parser, "cmax", 1, 65535);

  const std::vector<std::uint32_t> lambda_exponents = {2, 10, 13};

  io::Table table({"c", "lambda", "wait_avg", "wait_max", "reference",
                   "max_below_ref"});
  table.set_title("Figure 5 (left): waiting time vs capacity c");
  std::vector<std::vector<double>> csv_rows;

  io::AsciiPlot plot(48, 12);
  plot.set_title("Figure 5 (left): average waiting time vs capacity c");
  plot.set_x_label("c");

  for (const std::uint32_t i : lambda_exponents) {
    std::vector<double> plot_cs, plot_waits;
    if ((options.n >> i) == 0 ||
        (static_cast<std::uint64_t>(options.n) % (1ull << i)) != 0) {
      std::fprintf(stderr,
                   "[skip] lambda=1-2^-%u needs n divisible by 2^%u "
                   "(n=%u); rerun with a larger --n\n",
                   i, i, options.n);
      continue;
    }
    const double lambda = sim::lambda_one_minus_2pow(i);
    const std::uint64_t lambda_n = bench::paper_lambda_n(options.n, i);
    for (std::uint32_t c = 1; c <= c_max; ++c) {
      const auto result =
          bench::run_cell(options, bench::make_cell(options, c, lambda_n));
      const double reference =
          analysis::fig5_reference(options.n, lambda, c);
      const auto wait_max = static_cast<double>(result.wait_max);
      table.add_row({io::Table::format_number(c),
                     "1-2^-" + std::to_string(i),
                     io::Table::format_number(result.wait_mean),
                     io::Table::format_number(wait_max),
                     io::Table::format_number(reference),
                     wait_max <= reference ? "yes" : "NO"});
      csv_rows.push_back({static_cast<double>(c), lambda, result.wait_mean,
                          wait_max, static_cast<double>(result.wait_p99),
                          reference});
      plot_cs.push_back(c);
      plot_waits.push_back(result.wait_mean);
    }
    if (!plot_cs.empty()) {
      plot.add_series("lambda=1-2^-" + std::to_string(i), plot_cs,
                      plot_waits);
    }
  }
  plot.print();
  std::printf("\n");

  bench::emit(table, options, "fig5_wait_vs_c",
              {"c", "lambda", "wait_avg", "wait_max", "wait_p99_upper",
               "reference"},
              csv_rows);
  return 0;
}
