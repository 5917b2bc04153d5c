// E6 — the Section I-B comparison: CAPPED(c, λ) against the batch
// GREEDY[1] and GREEDY[2] of [PODC'16] on one workload.
//
// Expected shape (paper): for constant λ, CAPPED's maximum waiting time
// is log log n + O(1) while GREEDY[1] pays Θ((1/(1−λ))·log(n/(1−λ))) and
// GREEDY[2] Θ(log(n/(1−λ))) — so CAPPED wins on max wait, increasingly
// clearly as λ grows, while all processes serve the same throughput.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "core/greedy.hpp"

namespace {

struct Row {
  std::string process;
  double lambda;
  double wait_avg;
  double wait_max;
  double system_load_over_n;
};

Row run_greedy(const iba::bench::BenchOptions& options, std::uint32_t d,
               std::uint64_t lambda_n, std::uint64_t burn_in) {
  using namespace iba;
  core::BatchGreedyConfig config;
  config.n = options.n;
  config.d = d;
  config.lambda_n = lambda_n;
  core::BatchGreedy process(config, core::Engine(options.seed));
  std::fprintf(stderr, "[cell] greedy[%u] lambda_n=%llu burn_in=%llu ...\n",
               d, static_cast<unsigned long long>(lambda_n),
               static_cast<unsigned long long>(burn_in));
  // GREEDY[d] is not a CAPPED process, so no Scenario describes it.
  const auto result = sim::run_experiment(
      process, {.burn_in = burn_in, .measure_rounds = options.rounds});
  return {"GREEDY[" + std::to_string(d) + "]", config.lambda(),
          result.wait_mean, static_cast<double>(result.wait_max),
          result.system_load.mean() / options.n};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_compare_greedy",
                       "CAPPED vs batch GREEDY[1]/GREEDY[2] of PODC'16");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);

  // λ = 3/4 (constant) and λ = 1 − 2^(−6) (high). GREEDY[1]'s queues
  // relax on the 1/(1−λ)² timescale, so burn-in uses that scale.
  const std::vector<std::uint32_t> lambda_exponents = {2, 6};

  io::Table table({"process", "lambda", "wait_avg", "wait_max",
                   "sys_load/n"});
  table.set_title("CAPPED vs GREEDY[d] (PODC'16 baselines)");
  std::vector<std::vector<double>> csv_rows;
  auto add = [&](const Row& row, double process_id) {
    table.add_row({row.process, io::Table::format_number(row.lambda),
                   io::Table::format_number(row.wait_avg),
                   io::Table::format_number(row.wait_max),
                   io::Table::format_number(row.system_load_over_n)});
    csv_rows.push_back({process_id, row.lambda, row.wait_avg, row.wait_max,
                        row.system_load_over_n});
  };

  for (const std::uint32_t i : lambda_exponents) {
    if ((static_cast<std::uint64_t>(options.n) % (1ull << i)) != 0) {
      std::fprintf(stderr, "[skip] lambda=1-2^-%u needs 2^%u | n\n", i, i);
      continue;
    }
    const std::uint64_t lambda_n = bench::paper_lambda_n(options.n, i);
    const double lambda = sim::lambda_one_minus_2pow(i);
    const double slack = 1.0 - lambda;
    const auto greedy_burn = static_cast<std::uint64_t>(
        std::min(2000.0 + 5.0 / (slack * slack), 2e5));

    for (std::uint32_t c : {1u, 2u, 3u}) {
      const auto result =
          bench::run_cell(options, bench::make_cell(options, c, lambda_n));
      add({"CAPPED(c=" + std::to_string(c) + ")", lambda, result.wait_mean,
           static_cast<double>(result.wait_max), result.system_load_over_n},
          static_cast<double>(c));
    }
    add(run_greedy(options, 1, lambda_n, greedy_burn), 101);
    add(run_greedy(options, 2, lambda_n, greedy_burn), 102);

    std::printf("theory scales at lambda=%.6g: greedy1 ~ %.4g, "
                "greedy2 ~ %.4g, capped ~ loglog n = %.4g\n\n",
                lambda, analysis::greedy1_wait_scale(options.n, lambda),
                analysis::greedy2_wait_scale(options.n, lambda),
                analysis::log_log_n(options.n));
  }

  bench::emit(table, options, "compare_greedy",
              {"process_id", "lambda", "wait_avg", "wait_max",
               "sys_load_over_n"},
              csv_rows);
  return 0;
}
