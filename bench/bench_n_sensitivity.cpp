// E9 — n-insensitivity: Section V states that "the actual number of n
// has negligible impact on the (normalized) simulation results", which
// justifies the paper presenting n = 2^15 only. This bench sweeps n over
// several octaves at fixed (λ, c) and reports the normalized pool and
// the waiting times.
//
// Expected shape (paper): pool/n and wait_avg flat in n; wait_max grows
// only with the log log n term.
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_n_sensitivity",
                       "normalized metrics across n at fixed lambda, c");
  bench::add_standard_flags(parser);
  parser.add_flag("i", "lambda = 1 - 2^-i", "6");
  parser.add_flag("c", "capacity", "2");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  auto options = bench::read_standard_flags(parser);
  const auto i = bench::read_flag(parser, "i", 1, 63);
  const auto c = bench::read_flag(parser, "c", 1, 65535);
  const double lambda = sim::lambda_one_minus_2pow(i);

  const std::vector<std::uint32_t> sizes = {1u << 10, 1u << 11, 1u << 12,
                                            1u << 13, 1u << 14, 1u << 15};
  // λn/n grows with n, so checking the smallest n rejects a grid that
  // reaches λ = 1 before any cell runs.
  (void)bench::paper_lambda_n(sizes.front(), i);

  io::Table table({"n", "pool/n", "wait_avg", "wait_max",
                   "wait_max - loglog n"});
  table.set_title("n-insensitivity of normalized results");
  std::vector<std::vector<double>> csv_rows;

  for (const std::uint32_t n : sizes) {
    options.n = n;
    const auto result = bench::run_cell(
        options, bench::make_cell(options, c, bench::paper_lambda_n(n, i)));
    const double loglog = analysis::log_log_n(n);
    table.add_row({io::Table::format_number(n),
                   io::Table::format_number(result.pool_over_n),
                   io::Table::format_number(result.wait_mean),
                   io::Table::format_number(
                       static_cast<double>(result.wait_max)),
                   io::Table::format_number(
                       static_cast<double>(result.wait_max) - loglog)});
    csv_rows.push_back({static_cast<double>(n), lambda,
                        static_cast<double>(c),
                        result.pool_over_n, result.wait_mean,
                        static_cast<double>(result.wait_max), loglog});
  }

  bench::emit(table, options, "n_sensitivity",
              {"n", "lambda", "c", "pool_over_n", "wait_avg", "wait_max",
               "loglog_n"},
              csv_rows);
  return 0;
}
