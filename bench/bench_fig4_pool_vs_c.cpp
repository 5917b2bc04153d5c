// E1 — Figure 4 (left): normalized pool size as a function of the
// capacity c ∈ [1, 5] for the paper's two injection rates λ = 1 − 1/2²
// and λ = 1 − 1/2^10, against the dashed reference (1/c)·ln(1/(1−λ)) + 1.
//
// Expected shape (paper): the pool shrinks roughly like 1/c and stays
// below the reference curve for every c.
#include <cstdio>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_fig4_pool_vs_c",
                       "Figure 4 (left): normalized pool size vs capacity");
  bench::add_standard_flags(parser);
  parser.add_flag("cmax", "largest capacity to sweep", "5");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  const auto c_max = bench::read_flag(parser, "cmax", 1, 65535);

  const std::vector<std::uint32_t> lambda_exponents = {2, 10};

  io::Table table({"c", "lambda", "pool/n", "reference", "below_ref",
                   "thm2_bound/n"});
  table.set_title("Figure 4 (left): normalized pool size vs capacity c");
  std::vector<std::vector<double>> csv_rows;

  for (const std::uint32_t i : lambda_exponents) {
    const double lambda = sim::lambda_one_minus_2pow(i);
    const std::uint64_t lambda_n = bench::paper_lambda_n(options.n, i);
    for (std::uint32_t c = 1; c <= c_max; ++c) {
      const double measured =
          bench::run_cell(options, bench::make_cell(options, c, lambda_n))
              .pool_over_n;
      const double reference = analysis::fig4_reference(lambda, c);
      const double bound =
          analysis::pool_bound_thm2(options.n, lambda, c) / options.n;
      table.add_row({io::Table::format_number(c),
                     "1-2^-" + std::to_string(i),
                     io::Table::format_number(measured),
                     io::Table::format_number(reference),
                     measured <= reference ? "yes" : "NO",
                     io::Table::format_number(bound)});
      csv_rows.push_back(
          {static_cast<double>(c), lambda, measured, reference, bound});
    }
  }

  bench::emit(table, options, "fig4_pool_vs_c",
              {"c", "lambda", "pool_over_n", "reference",
               "thm2_bound_over_n"},
              csv_rows);
  return 0;
}
