// E7 — theory vs simulation: Section V's first goal is "to gauge how
// much we lose by explicitly not optimizing constants in the analysis".
// This bench measures pool size and waiting time across a (λ, c) grid
// and reports the slack factor of the Theorem 1/2 bounds.
//
// Expected shape (paper): the bounds hold with room to spare — the paper
// calls the factor-4 pool bound "rather pessimistic"; slack factors of
// roughly 3–20 are the expected outcome, never below 1.
#include <cstdio>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_theory_vs_sim",
                       "slack of the Theorem 1/2 bounds vs measurement");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);

  const std::vector<std::uint32_t> lambda_exponents = {1, 2, 6, 10};
  const std::vector<std::uint32_t> capacities = {1, 2, 3, 4};

  io::Table table({"lambda", "c", "pool_max", "pool_bound", "pool_slack",
                   "wait_max", "wait_bound", "wait_slack", "holds"});
  table.set_title("Theorem 1/2 bounds vs measured maxima");
  std::vector<std::vector<double>> csv_rows;

  for (const std::uint32_t i : lambda_exponents) {
    if ((static_cast<std::uint64_t>(options.n) % (1ull << i)) != 0) {
      std::fprintf(stderr, "[skip] lambda=1-2^-%u needs 2^%u | n\n", i, i);
      continue;
    }
    const double lambda = sim::lambda_one_minus_2pow(i);
    for (const std::uint32_t c : capacities) {
      const auto result = bench::run_cell(
          options,
          bench::make_cell(options, c, bench::paper_lambda_n(options.n, i)));

      // Theorem 1 for c = 1 (sharper constants), Theorem 2 otherwise.
      const double pool_bound =
          c == 1 ? analysis::pool_bound_thm1(options.n, lambda)
                 : analysis::pool_bound_thm2(options.n, lambda, c);
      const double wait_bound =
          c == 1 ? analysis::wait_bound_thm1(options.n, lambda)
                 : analysis::wait_bound_thm2(options.n, lambda, c);

      const auto pool_max = static_cast<double>(result.pool_max);
      const auto wait_max = static_cast<double>(result.wait_max);
      const double pool_slack = pool_max > 0 ? pool_bound / pool_max : 0.0;
      const double wait_slack = wait_max > 0 ? wait_bound / wait_max : 0.0;
      const bool holds = pool_max < pool_bound && wait_max < wait_bound;

      table.add_row({io::Table::format_number(lambda),
                     io::Table::format_number(c),
                     io::Table::format_number(pool_max),
                     io::Table::format_number(pool_bound),
                     io::Table::format_number(pool_slack),
                     io::Table::format_number(wait_max),
                     io::Table::format_number(wait_bound),
                     io::Table::format_number(wait_slack),
                     holds ? "yes" : "NO"});
      csv_rows.push_back({lambda, static_cast<double>(c), pool_max,
                          pool_bound, pool_slack, wait_max, wait_bound,
                          wait_slack, holds ? 1.0 : 0.0});
    }
  }

  bench::emit(table, options, "theory_vs_sim",
              {"lambda", "c", "pool_max", "pool_bound", "pool_slack",
               "wait_max", "wait_bound", "wait_slack", "holds"},
              csv_rows);
  return 0;
}
