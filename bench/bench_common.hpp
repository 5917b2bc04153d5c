// Shared plumbing of the experiment benches: standard CLI flags (--n,
// --rounds, --seed, --csv-dir, ...), CAPPED cells compiled into a
// scenario::Scenario with the principled burn-in and run through
// scenario::run_scenario, and combined table + CSV reporting. Every
// bench prints the paper's series as an aligned table and mirrors it to
// CSV. Progress and
// warnings go through the structured logger (telemetry/log.hpp), so
// IBA_LOG_LEVEL / IBA_LOG_FORMAT shape bench output like any other tool.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/assert.hpp"
#include "core/capped.hpp"
#include "io/cli.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/sealed.hpp"
#include "io/table.hpp"
#include "rng/simd.hpp"
#include "scenario/progress.hpp"
#include "scenario/runner.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "stats/histogram.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/registry.hpp"

namespace iba::bench {

/// The knobs every experiment bench exposes.
struct BenchOptions {
  std::uint32_t n = 1u << 13;
  std::uint64_t rounds = 1000;
  std::uint64_t seed = 2021;  // ICDCS 2021
  std::uint64_t burn_in_override = 0;  ///< 0 = suggested_burn_in(λ)
  std::string csv_dir = ".";
  bool write_csv = true;
  std::string telemetry_out;  ///< empty = no metrics snapshot
  bool force = false;         ///< overwrite existing output files
  core::RoundKernel kernel = core::RoundKernel::kBinMajor;
  std::uint32_t shards = 1;   ///< bin ranges run in parallel per round
};

/// Declares the standard flags on `parser`.
inline void add_standard_flags(io::ArgParser& parser) {
  parser.add_flag("n", "number of bins (paper: 32768)", "8192");
  parser.add_flag("rounds", "measured rounds per cell (paper: 1000)", "1000");
  parser.add_flag("seed", "master seed", "2021");
  parser.add_flag("burnin", "burn-in rounds (0 = 5/(1-lambda)+2000)",
                  "0");
  parser.add_flag("csv-dir", "directory for CSV output (created if missing)",
                  "results");
  parser.add_flag("csv", "write CSV files", "true");
  parser.add_flag("telemetry-out",
                  "write a metrics snapshot covering every cell to this path "
                  "(.prom = Prometheus text, .jsonl = JSON lines)",
                  "");
  parser.add_flag("force", "overwrite existing output files", "false");
  parser.add_flag("kernel",
                  "round hot-path kernel: bin-major or scalar "
                  "(identical results, different speed)",
                  "bin-major");
  parser.add_flag("shards",
                  "bin ranges run in parallel per round (bin-major only; "
                  "results are invariant in this)",
                  "1");
}

/// Refuses to clobber `path` unless --force was given. Thin forward to
/// the shared io::guard_overwrite (one-line diagnostic, exit 2), kept
/// under the bench namespace so existing bench call sites read the same.
inline void guard_overwrite(const std::string& path, bool force,
                            std::string_view flag) {
  io::guard_overwrite(path, force, std::string(flag));
}

/// Reads the standard flags back.
inline BenchOptions read_standard_flags(const io::ArgParser& parser) {
  BenchOptions options;
  try {
    options.n =
        static_cast<std::uint32_t>(parser.get_uint_range("n", 1, 1u << 28));
    options.rounds = parser.get_uint_range("rounds", 1, UINT64_MAX);
    options.seed = parser.get_uint("seed");
    options.burn_in_override = parser.get_uint("burnin");
    options.csv_dir = parser.get("csv-dir");
    options.write_csv = parser.get_bool("csv");
    options.telemetry_out = parser.get("telemetry-out");
    options.force = parser.get_bool("force");
    const std::string kernel_name = parser.get("kernel");
    if (!core::kernel_from_string(kernel_name, options.kernel)) {
      throw io::UsageError("--kernel expects bin-major or scalar, got '" +
                           kernel_name + "'");
    }
    options.shards =
        static_cast<std::uint32_t>(parser.get_uint_range("shards", 1, options.n));
  } catch (const io::UsageError& e) {
    io::fail_usage(e.what());
  }

  guard_overwrite(options.telemetry_out, options.force, "--telemetry-out");
  return options;
}

/// Reads a bench's own unsigned flag, restricted to [lo, hi]. A malformed
/// or out-of-range value exits 2 with a one-line message naming the flag.
inline std::uint32_t read_flag(const io::ArgParser& parser,
                               const std::string& name, std::uint32_t lo,
                               std::uint32_t hi) {
  try {
    return static_cast<std::uint32_t>(parser.get_uint_range(name, lo, hi));
  } catch (const io::UsageError& e) {
    io::fail_usage(e.what());
  }
}

/// λn for the paper's λ = 1 − 2^(−i) at n bins. A grid cell whose λn
/// rounds to n would run at λ = 1, not at the rate its row is labelled
/// with, so that is a usage error (exit 2) naming n and i.
inline std::uint64_t paper_lambda_n(std::uint32_t n, std::uint32_t i) {
  const std::uint64_t lambda_n = sim::lambda_n_for(n, i);
  if (lambda_n >= n) {
    io::fail_usage("lambda = 1-2^-" + std::to_string(i) +
                   " rounds to lambda = 1 at n = " + std::to_string(n) +
                   "; use a larger --n or a smaller i");
  }
  return lambda_n;
}

/// One CAPPED cell under `options`: n bins of capacity `capacity` with
/// exactly `lambda_n` deterministic arrivals per round, measured for
/// --rounds rounds after --burnin (default sim::suggested_burn_in(λ)).
inline scenario::Scenario make_cell(const BenchOptions& options,
                                    std::uint32_t capacity,
                                    std::uint64_t lambda_n) {
  const double lambda =
      static_cast<double>(lambda_n) / static_cast<double>(options.n);
  scenario::Scenario scn;
  char label[96];
  std::snprintf(label, sizeof(label), "n=%u c=%u lambda=%.6g", options.n,
                capacity, lambda);
  scn.name = label;
  scn.n = options.n;
  scn.capacity = capacity;
  scn.arrival = scenario::ArrivalModel::constant(lambda);
  scn.rounds = options.rounds;
  scn.burn_in = options.burn_in_override != 0
                    ? options.burn_in_override
                    : sim::suggested_burn_in(lambda);
  scn.seed = options.seed;
  IBA_EXPECT(scenario::capped_config(scn).lambda_n == lambda_n,
             "make_cell: the scenario's rate does not quantize back to "
             "lambda_n");
  return scn;
}

/// The engine configuration of a cell, with --kernel and --shards, for
/// the benches that drive a core::Capped through sim::run_experiment.
inline core::CappedConfig capped_cell(const BenchOptions& options,
                                      const scenario::Scenario& scn) {
  core::CappedConfig config = scenario::capped_config(scn);
  config.kernel = options.kernel;
  config.shards = options.shards;
  return config;
}

/// The measurement protocol of a cell, for sim::run_experiment.
inline sim::RunSpec run_spec(const scenario::Scenario& scn) {
  return {.burn_in = scn.burn_in, .measure_rounds = scn.rounds};
}

/// The bench-wide metrics registry: every run_cell records into it, and
/// --telemetry-out snapshots it next to the CSVs.
inline telemetry::Registry& bench_registry() {
  static telemetry::Registry registry;
  return registry;
}

/// Runs one CAPPED cell through scenario::run_scenario under --kernel and
/// --shards, records its artifact into bench_registry(), and returns the
/// observables the benches tabulate.
inline artifact::Observables run_cell(const BenchOptions& options,
                                      const scenario::Scenario& scn) {
  telemetry::log_info("cell_start", {{"cell", scn.name},
                                     {"burn_in", scn.burn_in},
                                     {"rounds", scn.rounds}});
  scenario::RunOptions run_options;
  run_options.kernel = options.kernel;
  run_options.shards = options.shards;
  const artifact::ResultArtifact a =
      scenario::run_scenario(scn, run_options).artifact;

  telemetry::Registry& registry = bench_registry();
  registry.counter("runs_total").inc();
  registry.counter("rounds_total").inc(a.rounds);
  registry.gauge("burn_in_rounds").set(static_cast<double>(a.burn_in));
  registry.counter("balls_deleted_total").inc(a.wait_count);
  registry.counter("balls_requeued_total").inc(a.requeued_sum);
  registry.histogram("wait_rounds")
      .merge_log2(stats::Log2Histogram::from_counts(a.wait_histogram,
                                                    a.wait_max),
                  static_cast<double>(a.wait_sum));
  return artifact::observables(a);
}

/// Writes the bench-wide registry to options.telemetry_out (no-op when
/// the flag was not given). Cumulative: covers every cell run so far.
inline void write_telemetry(const BenchOptions& options) {
  if (options.telemetry_out.empty()) return;
  if (telemetry::write_snapshot_file(bench_registry(),
                                     options.telemetry_out)) {
    telemetry::log_info("telemetry_written",
                        {{"path", options.telemetry_out}});
  } else {
    telemetry::log_error("telemetry_write_failed",
                         {{"path", options.telemetry_out}});
  }
}

/// Writes `table` to stdout, its numeric mirror to csv_dir/name.csv, and
/// the telemetry snapshot when requested.
inline void emit(const io::Table& table, const BenchOptions& options,
                 const std::string& name,
                 const std::vector<std::string>& columns,
                 const std::vector<std::vector<double>>& rows) {
  table.print();
  std::printf("\n");
  write_telemetry(options);
  if (!options.write_csv) return;
  std::error_code ec;
  std::filesystem::create_directories(options.csv_dir, ec);
  const std::string path = options.csv_dir + "/" + name + ".csv";
  io::CsvWriter csv(path);
  csv.header(columns);
  for (const auto& row : rows) csv.row(row);
  telemetry::log_info("csv_written",
                      {{"path", path}, {"rows", rows.size()}});
}

/// Writes the "host" object of a BENCH_*.json record: core count, CPU
/// model, L3 size, the SIMD backend fill_bounded dispatches to,
/// compiler and build type.
inline void write_host(io::JsonWriter& json) {
  std::string cpu_model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(": ");
      if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
      break;
    }
  }
  std::string l3;
  for (int index = 0; index < 8 && l3.empty(); ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::string level;
    std::ifstream(dir + "/level") >> level;
    if (level == "3") std::ifstream(dir + "/size") >> l3;
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  json.key("host").begin_object();
  json.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("cpu_model").value(cpu_model);
  json.key("l3").value(l3);
  json.key("simd_backend")
      .value(rng::simd_backend_name(rng::active_simd_backend()));
  json.key("compiler").value(compiler);
  json.key("build_type").value(IBA_BUILD_TYPE);
  json.end_object();
}

/// Commits a BENCH_*.json record atomically (io::sealed::commit), so a
/// reader such as bench_trend.py never sees a half-written file. Logs
/// and returns false on failure; `tool` names the bench in the error.
inline bool commit_json(const std::string& path, const std::string& text,
                        const std::string& tool) {
  try {
    io::sealed::commit(path, text, tool);
  } catch (const std::exception& error) {
    telemetry::log_error("json_commit_failed",
                         {{"path", path}, {"error", error.what()}});
    return false;
  }
  telemetry::log_info("bench_json_written", {{"path", path}});
  return true;
}

}  // namespace iba::bench
