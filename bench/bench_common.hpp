// Shared plumbing of the experiment benches: standard CLI flags (--n,
// --rounds, --seed, --csv-dir, ...), cell execution with the principled
// burn-in, and combined table + CSV reporting. Every bench prints the
// paper's series as an aligned table and mirrors it to CSV. Progress and
// warnings go through the structured logger (telemetry/log.hpp), so
// IBA_LOG_LEVEL / IBA_LOG_FORMAT shape bench output like any other tool.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "io/cli.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "rng/simd.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "telemetry/ball_trace.hpp"
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
  std::string trace_spans;    ///< empty = no span file
  double trace_sample = 0.0;  ///< 0 = ball tracing off
  bool force = false;         ///< overwrite existing output files
  core::RoundKernel kernel = core::RoundKernel::kBinMajor;
  std::uint32_t shards = 1;   ///< bin ranges run in parallel per round
};

/// Declares the standard flags on `parser`.
inline void add_standard_flags(io::ArgParser& parser) {
  parser.add_flag("n", "number of bins (paper: 32768)", "8192");
  parser.add_flag("rounds", "measured rounds per cell (paper: 1000)", "1000");
  parser.add_flag("seed", "master seed", "2021");
  parser.add_flag("burnin", "burn-in rounds (0 = auto 5/(1-lambda)+2000)",
                  "0");
  parser.add_flag("csv-dir", "directory for CSV output (created if missing)",
                  "results");
  parser.add_flag("csv", "write CSV files", "true");
  parser.add_flag("telemetry-out",
                  "write a metrics snapshot covering every cell to this path "
                  "(.prom = Prometheus text, .jsonl = JSON lines)",
                  "");
  parser.add_flag("trace-spans",
                  "append sampled ball spans (JSON lines) to this file; "
                  "requires --trace-sample > 0",
                  "");
  parser.add_flag("trace-sample",
                  "fraction of balls to trace through their lifecycle "
                  "(deterministic in the seed; 0 = off)",
                  "0");
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

/// Per-process span-tracing sink shared by every run_cell of a bench.
namespace detail {
struct TraceSink {
  std::string path;
  double sample = 0.0;
  std::ofstream out;
  std::uint64_t written = 0;
};
inline TraceSink& trace_sink() {
  static TraceSink sink;
  return sink;
}
}  // namespace detail

/// Refuses to clobber `path` unless --force was given. Thin forward to
/// the shared io::guard_overwrite (one-line diagnostic, exit 2), kept
/// under the bench namespace so existing bench call sites read the same.
inline void guard_overwrite(const std::string& path, bool force,
                            std::string_view flag) {
  io::guard_overwrite(path, force, std::string(flag));
}

/// Reads the standard flags back (and arms the span sink).
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
    options.trace_spans = parser.get("trace-spans");
    options.trace_sample = parser.get_double_range("trace-sample", 0.0, 1.0);
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
  guard_overwrite(options.trace_spans, options.force, "--trace-spans");
  auto& sink = detail::trace_sink();
  sink.path = options.trace_spans;
  sink.sample = options.trace_sample;
  return options;
}

/// The bench-wide metrics registry: every run_cell records into it, and
/// --telemetry-out snapshots it next to the CSVs.
inline telemetry::Registry& bench_registry() {
  static telemetry::Registry registry;
  return registry;
}

/// Builds the SimConfig for one cell under `options`.
inline sim::SimConfig make_cell(const BenchOptions& options,
                                std::uint32_t capacity,
                                std::uint64_t lambda_n) {
  sim::SimConfig config;
  config.n = options.n;
  config.capacity = capacity;
  config.lambda_n = lambda_n;
  config.measure_rounds = options.rounds;
  config.auto_burn_in = false;  // benches use the principled fixed burn-in
  config.burn_in = options.burn_in_override != 0
                       ? options.burn_in_override
                       : sim::suggested_burn_in(config.lambda());
  config.seed = options.seed;
  config.kernel = options.kernel;
  config.shards = options.shards;
  return config;
}

/// Runs one CAPPED cell, recording it into bench_registry() and — when
/// --trace-sample is set — tracing sampled balls, appending their spans
/// to the --trace-spans file.
inline sim::RunResult run_cell(const sim::SimConfig& config) {
  telemetry::log_info("cell_start", {{"cell", config.label()},
                                     {"burn_in", config.burn_in},
                                     {"rounds", config.measure_rounds}});
  sim::RunTelemetry telemetry;
  telemetry.registry = &bench_registry();

  auto& sink = detail::trace_sink();
  std::optional<telemetry::BallTracer> tracer;
  if (sink.sample > 0.0) {
    telemetry::BallTraceConfig trace_config;
    trace_config.seed = config.seed;
    trace_config.sample_rate = sink.sample;
    trace_config.completed_capacity = 1u << 16;
    tracer.emplace(trace_config);
    telemetry.ball_trace = &*tracer;
  }

  const sim::RunResult result = sim::run_capped(
      config, sim::RunSpec::from_config(config), telemetry);

  if (tracer.has_value() && !sink.path.empty()) {
    if (!sink.out.is_open()) {
      sink.out.open(sink.path, std::ios::trunc);
    }
    for (const telemetry::BallSpan& span : tracer->completed()) {
      telemetry::write_span_json(span, sink.out);
      ++sink.written;
    }
    sink.out.flush();
    telemetry::log_info("spans_written",
                        {{"cell", config.label()},
                         {"spans", tracer->completed().size()},
                         {"dropped", tracer->dropped()},
                         {"path", sink.path}});
  }
  return result;
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

}  // namespace iba::bench
