// simulate — the command-line driver of the baseline processes the
// paper compares CAPPED against: MODCAPPED, batch GREEDY[d] and
// CAPPED-GREEDY, with table and JSON outputs and a per-round trace.
// CAPPED(c, λ) itself runs through scenario_run --scenario <file>
// (docs/SCENARIOS.md), whose artifact the goldens pin.
//
//   $ ./simulate --process modcapped --n 8192 --c 2 --lambda 0.9375
//   $ ./simulate --process greedy --d 1 --json true
//   $ ./simulate --process capped-greedy --d 2 --trace-csv trace.csv
//
// Exit codes: 0 success, 1 runtime error, 2 usage error (bad flag,
// unknown process, out-of-domain parameter).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "core/modcapped.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace {

using namespace iba;

template <core::AllocationProcess P>
sim::RunResult run_with_trace(P& process, const sim::RunSpec& spec,
                              const std::string& trace_path) {
  if (trace_path.empty()) return sim::run_experiment(process, spec);
  // Tracing run: record the measurement window manually so the trace
  // lines up with the reported statistics.
  for (std::uint64_t i = 0; i < spec.burn_in; ++i) (void)process.step();
  if constexpr (requires { process.reset_wait_stats(); }) {
    process.reset_wait_stats();
  }
  sim::TraceRecorder trace;
  // run_experiment would hide per-round data; drive the loop here.
  sim::RunResult result;
  result.burn_in_used = spec.burn_in;
  result.measured_rounds = spec.measure_rounds;
  double wait_sum = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < spec.measure_rounds; ++i) {
    const auto m = process.step();
    trace.observe(m);
    result.pool.add(static_cast<double>(m.pool_size));
    result.normalized_pool.add(static_cast<double>(m.pool_size) /
                               static_cast<double>(process.n()));
    result.max_load.add(static_cast<double>(m.max_load));
    result.system_load.add(static_cast<double>(m.pool_size + m.total_load));
    result.deletions += m.wait_count;
    wait_sum += m.wait_sum;
    if (m.wait_max > result.wait_max) result.wait_max = m.wait_max;
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  result.rounds_per_second =
      elapsed > 0 ? static_cast<double>(spec.measure_rounds) / elapsed : 0.0;
  if (result.deletions > 0) {
    result.wait_mean = wait_sum / static_cast<double>(result.deletions);
  }
  if constexpr (requires { process.waits(); }) {
    result.wait_p99_upper =
        static_cast<double>(process.waits().quantile_upper_bound(0.99));
  }
  trace.write_csv(trace_path);
  std::fprintf(stderr, "[trace] wrote %s (%zu rounds)\n", trace_path.c_str(),
               static_cast<std::size_t>(spec.measure_rounds));
  return result;
}

void report(const std::string& process_name, std::uint32_t n, double lambda,
            const sim::RunResult& result, bool as_json) {
  if (as_json) {
    io::JsonWriter json(std::cout);
    json.begin_object()
        .key("process").value(process_name)
        .key("n").value(static_cast<std::uint64_t>(n))
        .key("lambda").value(lambda)
        .key("burn_in").value(result.burn_in_used)
        .key("measured_rounds").value(result.measured_rounds)
        .key("pool_mean").value(result.pool.mean())
        .key("pool_over_n").value(result.normalized_pool.mean())
        .key("pool_max").value(result.pool.max())
        .key("wait_mean").value(result.wait_mean)
        .key("wait_max").value(result.wait_max)
        .key("wait_p99_upper").value(result.wait_p99_upper)
        .key("deletions").value(result.deletions)
        .key("max_load_peak").value(result.max_load.max())
        .key("rounds_per_second").value(result.rounds_per_second)
        .end_object();
    std::cout << '\n';
    return;
  }
  const std::pair<const char*, double> rows[] = {
      {"burn-in rounds", static_cast<double>(result.burn_in_used)},
      {"measured rounds", static_cast<double>(result.measured_rounds)},
      {"pool size (avg)", result.pool.mean()},
      {"pool / n", result.normalized_pool.mean()},
      {"waiting time (avg)", result.wait_mean},
      {"waiting time (p99<=)", result.wait_p99_upper},
      {"waiting time (max)", static_cast<double>(result.wait_max)},
      {"max load (peak)", result.max_load.max()},
      {"throughput (rounds/s)", result.rounds_per_second}};
  io::Table table({"metric", "value"});
  table.set_title(process_name + " results");
  for (const auto& [label, value] : rows) {
    table.add_row({label, io::Table::format_number(value)});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("simulate",
                       "run a baseline allocation process: MODCAPPED, "
                       "GREEDY[d] or CAPPED-GREEDY");
  parser.add_flag("process",
                  "modcapped | greedy | capped-greedy (CAPPED runs through "
                  "scenario_run --scenario)",
                  "");
  parser.add_flag("n", "number of bins", "8192");
  parser.add_flag("c",
                  "buffer capacity, 1..65535 (for c = inf run --process "
                  "greedy --d 1)",
                  "2");
  parser.add_flag("d", "choices per ball (greedy / capped-greedy)", "2");
  parser.add_flag("lambda", "arrival rate in (0, 1); lambda*n integral",
                  "0.9375");
  parser.add_flag("rounds", "measured rounds", "1000");
  parser.add_flag("burnin", "burn-in rounds (0 = 5/(1-lambda)+2000)", "0");
  parser.add_flag("seed", "random seed", "1");
  parser.add_flag("trace-csv", "per-round trace CSV path", "");
  parser.add_flag("json", "emit the result as JSON", "false");
  parser.add_flag("force", "overwrite existing output files", "false");

  try {
    if (!parser.parse_or_exit(argc, argv)) return 0;

    const auto n =
        static_cast<std::uint32_t>(parser.get_uint_range("n", 1, 1u << 28));
    const double lambda =
        parser.get_double_range("lambda", 0.0, 1.0, true, true);
    const auto process_name = parser.get("process");
    const bool as_json = parser.get_bool("json");
    const auto trace_path = parser.get("trace-csv");
    // Shared overwrite guard (same contract as the benches and
    // scenario_run): existing outputs are a usage error without --force.
    const bool force = parser.get_bool("force");
    io::guard_overwrite(trace_path, force, "--trace-csv");

    sim::RunSpec spec;
    spec.measure_rounds = parser.get_uint_range("rounds", 1, UINT64_MAX);
    spec.burn_in = parser.provided("burnin") && parser.get_uint("burnin") > 0
                       ? parser.get_uint("burnin")
                       : sim::suggested_burn_in(lambda);

    const auto seed = parser.get_uint("seed");
    const auto lambda_n = core::CappedConfig::from_rate(n, lambda, 1).lambda_n;

    if (process_name == "modcapped") {
      core::ModCappedConfig config;
      config.n = n;
      config.capacity =
          static_cast<std::uint32_t>(parser.get_uint_range("c", 1, 65535));
      config.lambda_n = lambda_n;
      core::ModCapped process(config, core::Engine(seed));
      const auto result = run_with_trace(process, spec, trace_path);
      report("MODCAPPED", n, lambda, result, as_json);
    } else if (process_name == "greedy") {
      core::BatchGreedyConfig config;
      config.n = n;
      config.d = static_cast<std::uint32_t>(parser.get_uint_range("d", 1, 16));
      config.lambda_n = lambda_n;
      core::BatchGreedy process(config, core::Engine(seed));
      const auto result = run_with_trace(process, spec, trace_path);
      report("GREEDY[" + std::to_string(config.d) + "]", n, lambda, result,
             as_json);
    } else if (process_name == "capped-greedy") {
      core::CappedConfig config;
      config.n = n;
      config.capacity =
          static_cast<std::uint32_t>(parser.get_uint_range("c", 1, 65535));
      config.lambda_n = lambda_n;
      core::Capped process(config, core::Engine(seed));
      core::GreedyChoiceSampler greedy(
          process,
          static_cast<std::uint32_t>(parser.get_uint_range("d", 1, 16)));
      process.set_bin_sampler(&greedy);
      const auto result = run_with_trace(process, spec, trace_path);
      report("CAPPED-GREEDY", n, lambda, result, as_json);
    } else {
      throw io::UsageError(
          "simulate: unknown --process '" + process_name +
          "': expects modcapped, greedy or capped-greedy; CAPPED(c, "
          "lambda) runs through scenario_run --scenario <file>");
    }
  } catch (const iba::ContractViolation& error) {
    io::fail_usage(error.what());  // covers io::UsageError too
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
