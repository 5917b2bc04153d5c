// E14 — buffers vs choices: the paper's introduction positions finite
// buffers as the parallel-setting substitute for the power of two
// choices. This bench composes the two (CAPPED-GREEDY(c, d, λ): CAPPED
// with a GreedyChoiceSampler) and measures what d = 2 still adds once
// buffers exist.
//
// Expected shape: at c = 1, d = 2 helps noticeably (it is the classic
// two-choice effect on the pool); at the sweet-spot c the marginal gain
// of the second choice shrinks — buffers already deliver most of the
// benefit at half the random bits (the paper's Section I-B point).
#include <vector>

#include "bench_common.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_dchoice",
                       "CAPPED-GREEDY(c, d): buffers composed with choices");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);

  const std::uint32_t i = 6;  // λ = 1 − 2^−6
  const std::vector<std::uint32_t> capacities = {1, 2, 3};
  const std::vector<std::uint32_t> choices = {1, 2};

  io::Table table({"c", "d", "pool/n", "wait_avg", "wait_max",
                   "rng_draws/ball"});
  table.set_title("Buffers x choices, lambda = 1-2^-6");
  std::vector<std::vector<double>> csv_rows;

  for (const std::uint32_t c : capacities) {
    for (const std::uint32_t d : choices) {
      const auto cell =
          bench::make_cell(options, c, bench::paper_lambda_n(options.n, i));
      std::fprintf(stderr, "[cell] %s d=%u ...\n", cell.name.c_str(), d);
      // A Scenario has no d-choice sampler, so this runs on run_experiment.
      core::Capped process(bench::capped_cell(options, cell),
                           core::Engine(options.seed));
      core::GreedyChoiceSampler greedy(process, d);
      process.set_bin_sampler(&greedy);
      const auto result = sim::run_experiment(process, bench::run_spec(cell));

      table.add_row({io::Table::format_number(c),
                     io::Table::format_number(d),
                     io::Table::format_number(result.normalized_pool.mean()),
                     io::Table::format_number(result.wait_mean),
                     io::Table::format_number(
                         static_cast<double>(result.wait_max)),
                     io::Table::format_number(d)});
      csv_rows.push_back({static_cast<double>(c), static_cast<double>(d),
                          result.normalized_pool.mean(), result.wait_mean,
                          static_cast<double>(result.wait_max)});
    }
  }

  bench::emit(table, options, "dchoice",
              {"c", "d", "pool_over_n", "wait_avg", "wait_max"}, csv_rows);
  return 0;
}
