// E15 — robustness under bin failures: the paper assumes reliable bins;
// this bench injects per-round, per-bin service failures (probability φ)
// and measures how pool size and waiting time degrade.
//
// Expected shape: stable as long as λ < 1 − φ (the effective service
// rate), with pool and waits growing like the reliable system at
// effective rate λ/(1 − φ); past the boundary the pool diverges —
// reported here as the measured pool growth slope.
#include <vector>

#include "bench_common.hpp"
#include "core/capped.hpp"

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_failures",
                       "CAPPED under per-bin service failure probability");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);

  const std::uint32_t c = 2;
  const std::uint64_t lambda_n =
      static_cast<std::uint64_t>(options.n) * 3 / 4;  // λ = 3/4
  const std::vector<double> failure_probs = {0.0, 0.05, 0.1, 0.2,
                                             0.24, 0.3};
  const std::vector<core::FailureMode> modes = {
      core::FailureMode::kSkipService, core::FailureMode::kCrashRequeue};

  io::Table table({"phi", "mode", "stable?", "pool/n", "wait_avg",
                   "wait_max", "pool_slope/round"});
  table.set_title("Failure injection, lambda = 3/4, c = 2 "
                  "(skip-service boundary at phi = 1/4)");
  std::vector<std::vector<double>> csv_rows;

  for (const auto mode : modes)
  for (const double phi : failure_probs) {
    // A Scenario has no per-round failure probability, and the drift
    // window below steps the process past the run, so this runs on
    // run_experiment.
    const auto cell = bench::make_cell(options, c, lambda_n);
    core::CappedConfig config = bench::capped_cell(options, cell);
    config.failure_probability = phi;
    config.failure_mode = mode;
    std::fprintf(stderr, "[cell] %s phi=%.2f mode=%s ...\n",
                 cell.name.c_str(), phi,
                 std::string(core::to_string(mode)).c_str());
    core::Capped process(config, core::Engine(options.seed));
    const auto result = sim::run_experiment(process, bench::run_spec(cell));

    // Measure the residual pool drift over a second window: a stable
    // system has slope ≈ 0; past the boundary it grows ≈ (λ−(1−φ))·n.
    const std::uint64_t pool_start = process.pool_size();
    const std::uint64_t drift_rounds = 500;
    for (std::uint64_t t = 0; t < drift_rounds; ++t) (void)process.step();
    const double slope =
        (static_cast<double>(process.pool_size()) -
         static_cast<double>(pool_start)) /
        static_cast<double>(drift_rounds);
    const bool stable = slope < 0.01 * static_cast<double>(options.n);

    table.add_row({io::Table::format_number(phi),
                   std::string(core::to_string(mode)),
                   stable ? "yes" : "NO",
                   io::Table::format_number(result.normalized_pool.mean()),
                   io::Table::format_number(result.wait_mean),
                   io::Table::format_number(
                       static_cast<double>(result.wait_max)),
                   io::Table::format_number(slope)});
    csv_rows.push_back({phi, static_cast<double>(mode), stable ? 1.0 : 0.0,
                        result.normalized_pool.mean(), result.wait_mean,
                        static_cast<double>(result.wait_max), slope});
  }

  bench::emit(table, options, "failures",
              {"phi", "mode", "stable", "pool_over_n", "wait_avg",
               "wait_max", "pool_slope_per_round"},
              csv_rows);
  return 0;
}
