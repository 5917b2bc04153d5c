// E5 — the sweet spot: sweep c over a wide range at several injection
// rates, locate the empirical argmin of the average and maximum waiting
// time, and compare against the theory prediction c* = Θ(√ln(1/(1−λ))).
//
// Expected shape (paper): minima around c = 2 and c = 3 for the λ values
// of Section V; the optimal c grows slowly (square-root) with
// ln(1/(1−λ)).
#include <cstdio>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_sweet_spot",
                       "locate the optimal capacity c per injection rate");
  bench::add_standard_flags(parser);
  parser.add_flag("cmax", "largest capacity to sweep", "10");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  const auto c_max = bench::read_flag(parser, "cmax", 1, 65535);

  const std::vector<std::uint32_t> lambda_exponents = {4, 7, 10};

  io::Table table({"lambda", "best_c_avg", "best_c_max", "sqrt_log_pred",
                   "wait_at_best", "wait_at_c1"});
  table.set_title("Sweet spot: optimal capacity per injection rate");
  std::vector<std::vector<double>> csv_rows;

  io::Table detail({"lambda", "c", "wait_avg", "wait_max"});
  detail.set_title("Sweet spot: full sweep detail");
  std::vector<std::vector<double>> detail_rows;

  for (const std::uint32_t i : lambda_exponents) {
    if ((static_cast<std::uint64_t>(options.n) % (1ull << i)) != 0) {
      std::fprintf(stderr, "[skip] lambda=1-2^-%u needs 2^%u | n\n", i, i);
      continue;
    }
    const double lambda = sim::lambda_one_minus_2pow(i);
    double best_avg = 0, best_avg_wait = 0, wait_at_c1 = 0;
    double best_max = 0, best_max_wait = 0;
    const std::uint64_t lambda_n = bench::paper_lambda_n(options.n, i);
    for (std::uint32_t c = 1; c <= c_max; ++c) {
      const auto result =
          bench::run_cell(options, bench::make_cell(options, c, lambda_n));
      const auto wait_max = static_cast<double>(result.wait_max);
      if (c == 1) wait_at_c1 = result.wait_mean;
      if (c == 1 || result.wait_mean < best_avg_wait) {
        best_avg_wait = result.wait_mean;
        best_avg = c;
      }
      if (c == 1 || wait_max < best_max_wait) {
        best_max_wait = wait_max;
        best_max = c;
      }
      detail.add_row({io::Table::format_number(lambda),
                      io::Table::format_number(c),
                      io::Table::format_number(result.wait_mean),
                      io::Table::format_number(wait_max)});
      detail_rows.push_back(
          {lambda, static_cast<double>(c), result.wait_mean, wait_max});
    }
    const double predicted = analysis::sweet_spot_prediction(lambda);
    table.add_row({io::Table::format_number(lambda),
                   io::Table::format_number(best_avg),
                   io::Table::format_number(best_max),
                   io::Table::format_number(predicted),
                   io::Table::format_number(best_avg_wait),
                   io::Table::format_number(wait_at_c1)});
    csv_rows.push_back(
        {lambda, best_avg, best_max, predicted, best_avg_wait, wait_at_c1});
  }

  detail.print();
  std::printf("\n");
  bench::emit(table, options, "sweet_spot",
              {"lambda", "best_c_avg", "best_c_max", "sqrt_log_prediction",
               "wait_at_best", "wait_at_c1"},
              csv_rows);
  if (options.write_csv) {
    io::CsvWriter csv(options.csv_dir + "/sweet_spot_detail.csv");
    csv.header({"lambda", "c", "wait_avg", "wait_max"});
    for (const auto& row : detail_rows) csv.row(row);
  }
  return 0;
}
