// simulate — the library's kitchen-sink command-line driver: every
// process, policy, and measurement knob behind one binary, with table
// and JSON outputs. The tool a downstream user reaches for before
// writing code against the API.
//
//   $ ./simulate --process capped --n 8192 --c 2 --lambda 0.9375
//   $ ./simulate --process capped-greedy --d 2 --trace-csv trace.csv
//   $ ./simulate --faults "crash@50:bins=0-63,down=20" --audit-every 1
//   $ ./simulate --checkpoint-every 500 --checkpoint-out state.ckpt
//   $ ./simulate --resume state.ckpt --rounds 1000
//
// --process capped compiles its flags into a scenario::Scenario and
// prints the result artifact of scenario::run_scenario (per-round output:
// --timeseries-out). --resume P --rounds K runs K more rounds from P;
// waits and deletions continue P's statistics, pool fields cover K.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error (bad flag,
// out-of-domain parameter, an option conflict the library rejects with
// ContractViolation, or a resume flag that disagrees with the
// checkpoint), 3 invariant violation detected by the auditor.
#include <array>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "artifact/artifact.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "core/modcapped.hpp"
#include "fault/schedule.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/checkpoint.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace {

using namespace iba;

core::ArrivalModel parse_arrival(const std::string& text) {
  if (text == "deterministic") return core::ArrivalModel::kDeterministic;
  if (text == "binomial") return core::ArrivalModel::kBinomial;
  if (text == "poisson") return core::ArrivalModel::kPoisson;
  throw io::UsageError("simulate: unknown --arrival '" + text + "'");
}

/// --c: a capacity in [1, 65535]. CAPPED(∞, λ) is the batch GREEDY[1]
/// process, which has its own --process.
std::uint32_t parse_capacity(const io::ArgParser& parser) {
  if (parser.get("c") == "inf") {
    throw io::UsageError(
        "simulate: --c inf is the batch GREEDY[1] process; run it as "
        "--process greedy --d 1");
  }
  return static_cast<std::uint32_t>(parser.get_uint_range("c", 1, 65535));
}

/// Rounds per second over a window that began at `start`.
double rounds_per_second(std::uint64_t rounds,
                         std::chrono::steady_clock::time_point start) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return elapsed > 0 ? static_cast<double>(rounds) / elapsed : 0.0;
}

/// The printed fields of one run, whichever process produced them.
struct Report {
  std::uint64_t burn_in = 0, measured_rounds = 0, wait_max = 0, deletions = 0;
  double pool_mean = 0, pool_over_n = 0, pool_max = 0, wait_mean = 0;
  double wait_p99_upper = 0, max_load_peak = 0, rounds_per_second = 0;
};

Report report_of(const sim::RunResult& r) {
  return {.burn_in = r.burn_in_used, .measured_rounds = r.measured_rounds,
          .wait_max = r.wait_max, .deletions = r.deletions,
          .pool_mean = r.pool.mean(), .pool_over_n = r.normalized_pool.mean(),
          .pool_max = r.pool.max(), .wait_mean = r.wait_mean,
          .wait_p99_upper = r.wait_p99_upper,
          .max_load_peak = r.max_load.max(),
          .rounds_per_second = r.rounds_per_second};
}

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
  result.rounds_per_second = rounds_per_second(spec.measure_rounds, start);
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
            const Report& result, bool as_json) {
  if (as_json) {
    io::JsonWriter json(std::cout);
    json.begin_object()
        .key("process").value(process_name)
        .key("n").value(static_cast<std::uint64_t>(n))
        .key("lambda").value(lambda)
        .key("burn_in").value(result.burn_in)
        .key("measured_rounds").value(result.measured_rounds)
        .key("pool_mean").value(result.pool_mean)
        .key("pool_over_n").value(result.pool_over_n)
        .key("pool_max").value(result.pool_max)
        .key("wait_mean").value(result.wait_mean)
        .key("wait_max").value(result.wait_max)
        .key("wait_p99_upper").value(result.wait_p99_upper)
        .key("deletions").value(result.deletions)
        .key("max_load_peak").value(result.max_load_peak)
        .key("rounds_per_second").value(result.rounds_per_second)
        .end_object();
    std::cout << '\n';
    return;
  }
  const std::pair<const char*, double> rows[] = {
      {"burn-in rounds", static_cast<double>(result.burn_in)},
      {"measured rounds", static_cast<double>(result.measured_rounds)},
      {"pool size (avg)", result.pool_mean},
      {"pool / n", result.pool_over_n},
      {"waiting time (avg)", result.wait_mean},
      {"waiting time (p99<=)", result.wait_p99_upper},
      {"waiting time (max)", static_cast<double>(result.wait_max)},
      {"max load (peak)", result.max_load_peak},
      {"throughput (rounds/s)", result.rounds_per_second}};
  io::Table table({"metric", "value"});
  table.set_title(process_name + " results");
  for (const auto& [label, value] : rows) {
    table.add_row({label, io::Table::format_number(value)});
  }
  table.print();
}

/// Sets the scenario fields a checkpoint also stores from the CAPPED
/// flags: every flag for a fresh run, only the given ones on a resume.
void apply_flags(const io::ArgParser& parser, scenario::Scenario& scn,
                 bool given_only) {
  const auto use = [&](const char* flag) {
    return !given_only || parser.provided(flag);
  };
  const auto u32 = [&](const char* flag, std::uint32_t hi,
                       std::uint32_t& out) {
    if (use(flag)) {
      out = static_cast<std::uint32_t>(parser.get_uint_range(flag, 1, hi));
    }
  };
  u32("n", 1u << 28, scn.n);
  if (use("c")) scn.capacity = parse_capacity(parser);
  if (use("lambda")) {
    scn.arrival.lambda = parser.get_double_range("lambda", 0, 1, true, true);
  }
  if (use("arrival")) {
    scn.arrival.distribution = parse_arrival(parser.get("arrival"));
  }
  if (use("faults")) {
    const std::string text = parser.get("faults");
    scn.fault_schedule =
        text.empty() ? "" : fault::to_string(fault::parse_schedule(text));
  }
  if (use("fault-seed")) scn.fault_seed = parser.get_uint("fault-seed");
  if (use("pool-limit")) scn.pool_limit = parser.get_uint("pool-limit");
  const std::string bp_name = parser.get("backpressure");
  if (use("backpressure") &&
      !core::backpressure_from_string(bp_name, scn.backpressure)) {
    throw io::UsageError("simulate: --backpressure expects none, shed or "
                         "defer, got '" + bp_name + "'");
  }
  u32("backoff", 1u << 20, scn.backoff);
  control::ControlConfig& ctrl = scn.control;
  const std::string policy = parser.get("control");
  if (use("control") && !control::policy_from_string(policy, ctrl.policy)) {
    throw io::UsageError(
        "simulate: --control expects none, static, sweet-spot or aimd, "
        "got '" + policy + "'");
  }
  u32("c-max", 65535, ctrl.c_max);
  u32("control-window", 1u << 16, ctrl.window);
  u32("cooldown", 1u << 20, ctrl.cooldown);
  if (use("control-hysteresis")) {
    ctrl.hysteresis =
        parser.get_double_range("control-hysteresis", 0, 1, false, false);
  }
  if (use("admission-target")) {
    ctrl.admission_target = parser.get_uint("admission-target");
  }
}

/// A fresh run's scenario: the flags, their cross-flag rules, and the
/// burn-in rule.
scenario::Scenario fresh_scenario(const io::ArgParser& parser) {
  scenario::Scenario scn;
  apply_flags(parser, scn, false);
  if (scn.backpressure != core::BackpressureMode::kNone &&
      scn.pool_limit == 0) {
    throw io::UsageError(
        "simulate: --backpressure requires --pool-limit > 0");
  }
  if (scn.control.enabled() && scn.capacity > scn.control.c_max) {
    throw io::UsageError("simulate: --c " + std::to_string(scn.capacity) +
                         " exceeds --c-max " +
                         std::to_string(scn.control.c_max));
  }
  if (scn.control.admission_target > 0 &&
      (!scn.control.enabled() ||
       scn.backpressure == core::BackpressureMode::kNone)) {
    throw io::UsageError(
        "simulate: --admission-target requires --control (static, "
        "sweet-spot or aimd) and --backpressure shed or defer");
  }
  const std::uint64_t burn_in = parser.get_uint("burnin");
  scn.burn_in =
      burn_in > 0 ? burn_in : sim::suggested_burn_in(scn.arrival.lambda);
  return scn;
}

/// A resumed run's scenario: the checkpoint's configuration and fault
/// schedule, with burn-in = the checkpoint's round, so every round run
/// is measured.
scenario::Scenario checkpoint_scenario(const sim::Checkpoint& ckpt) {
  const core::CappedConfig& cfg = ckpt.snapshot.config;
  scenario::Scenario scn;
  scn.n = cfg.n;
  scn.capacity = cfg.capacity;
  scn.kernel = cfg.kernel;
  scn.shards = cfg.shards;
  scn.arrival = scenario::ArrivalModel::constant(cfg.lambda(), cfg.arrival);
  if (ckpt.has_fault_state) {
    scn.fault_schedule = ckpt.fault_schedule;
    scn.fault_seed = ckpt.fault_seed;
  }
  scn.pool_limit = cfg.pool_limit;
  scn.backpressure = cfg.backpressure;
  scn.backoff = cfg.backoff_rounds;
  scn.control = cfg.control;
  scn.burn_in = ckpt.snapshot.round;
  return scn;
}

/// A resume continues the checkpoint's run, so the given flags may not
/// change a field of its canonical scenario text. Under control, c and
/// the pool limit are exempt: the controller retunes them.
void check_resume_flags(const io::ArgParser& parser,
                        const scenario::Scenario& saved) {
  scenario::Scenario given = saved;
  apply_flags(parser, given, true);
  if (saved.control.enabled()) {
    given.capacity = saved.capacity;
    given.pool_limit = saved.pool_limit;
  }
  // "section.key" -> {checkpoint value, flag value}.
  std::map<std::string, std::array<std::string, 2>> fields;
  for (const int side : {0, 1}) {
    std::istringstream text((side == 0 ? saved : given).canonical_text());
    std::string section;
    for (std::string line; std::getline(text, line);) {
      const std::size_t eq = line.find(" = ");
      if (line.starts_with('[')) {
        section = line.substr(1, line.size() - 2) + ".";
      } else if (eq != std::string::npos) {
        fields[section + line.substr(0, eq)][side] = line.substr(eq + 3);
      }
    }
  }
  std::string conflicts;
  for (const auto& [key, values] : fields) {
    if (values[0] == values[1]) continue;
    conflicts += "; checkpoint field " + key + " = '" + values[0] +
                 "' (flags: '" + values[1] + "')";
  }
  if (!conflicts.empty()) {
    throw io::UsageError("simulate: --resume continues the checkpoint's "
                         "run, so drop the flags that disagree with it or "
                         "run fresh" + conflicts);
  }
}

/// The CAPPED front end: compiles the flags (or the --resume checkpoint)
/// into a scenario, runs it, and prints the artifact's fields. Returns
/// the process exit code.
int capped_cli(const io::ArgParser& parser) {
  if (!parser.get("trace-csv").empty()) {
    throw io::UsageError(
        "simulate: --trace-csv is not available for --process capped; "
        "its per-round output is --timeseries-out");
  }
  const std::string resume = parser.get("resume");
  sim::Checkpoint ckpt;
  scenario::Scenario scn;
  if (!resume.empty()) {
    ckpt = sim::load_checkpoint_full(resume);
    scn = checkpoint_scenario(ckpt);
    check_resume_flags(parser, scn);
    std::fprintf(stderr, "[checkpoint] resumed from %s at round %llu%s\n",
                 resume.c_str(),
                 static_cast<unsigned long long>(ckpt.snapshot.round),
                 ckpt.has_fault_state ? " (fault plan restored)" : "");
  } else {
    scn = fresh_scenario(parser);
  }
  scn.name = "simulate";
  scn.seed = parser.get_uint("seed");
  scn.rounds = parser.get_uint_range("rounds", 1, UINT64_MAX);
  scn.expect.audit = parser.get_uint("audit-every") > 0;
  if (scn.expect.audit) scn.expect.audit_every = parser.get_uint("audit-every");
  scn.record.cadence = parser.get_uint_range("ts-cadence", 1, UINT64_MAX);

  scenario::RunOptions options;
  if (parser.provided("kernel")) {
    core::RoundKernel kernel = core::RoundKernel::kBinMajor;
    if (!core::kernel_from_string(parser.get("kernel"), kernel)) {
      throw io::UsageError("simulate: --kernel expects bin-major or scalar, "
                           "got '" + parser.get("kernel") + "'");
    }
    options.kernel = kernel;
  }
  if (parser.provided("shards")) {
    options.shards = static_cast<std::uint32_t>(
        parser.get_uint_range("shards", 1, scn.n));
  }
  options.checkpoint_out = parser.get("checkpoint-out");
  options.checkpoint_every = parser.get_uint("checkpoint-every");
  options.timeseries_out = parser.get("timeseries-out");
  options.flight_recorder = parser.get("flight-recorder");

  const auto start = std::chrono::steady_clock::now();
  const scenario::RunOutcome outcome =
      resume.empty() ? scenario::run_scenario(scn, options)
                     : scenario::continue_run(scn, std::move(ckpt), options);
  const std::uint64_t rounds_run =
      resume.empty() ? scn.burn_in + scn.rounds : scn.rounds;
  const artifact::ResultArtifact& a = outcome.artifact;
  const artifact::Observables o = artifact::observables(a);
  const Report result{
      .burn_in = a.burn_in, .measured_rounds = a.rounds,
      .wait_max = o.wait_max, .deletions = o.deletions,
      .pool_mean = o.pool_mean, .pool_over_n = o.pool_over_n,
      .pool_max = static_cast<double>(o.pool_max),
      .wait_mean = o.wait_mean,
      .wait_p99_upper = static_cast<double>(o.wait_p99),
      .max_load_peak = static_cast<double>(a.max_load_peak),
      .rounds_per_second = rounds_per_second(rounds_run, start)};
  report("CAPPED", a.n, scn.arrival.lambda, result, parser.get_bool("json"));

  if (a.has_control) {
    std::fprintf(stderr,
                 "[control] policy=%s capacity_final=%u changes=%llu "
                 "grows=%llu shrinks=%llu\n",
                 std::string(control::to_string(scn.control.policy)).c_str(),
                 a.capacity_final,
                 static_cast<unsigned long long>(a.control_changes),
                 static_cast<unsigned long long>(a.control_grows),
                 static_cast<unsigned long long>(a.control_shrinks));
  }
  if (a.has_faults) {
    std::fprintf(stderr,
                 "[faults] crashes=%llu repairs=%llu straggler_skips=%llu\n",
                 static_cast<unsigned long long>(a.crashes),
                 static_cast<unsigned long long>(a.repairs),
                 static_cast<unsigned long long>(a.straggler_skips));
  }
  if (a.audited) {
    std::fprintf(stderr, "[audit] rounds=%llu violations=%llu\n",
                 static_cast<unsigned long long>(a.audit_rounds),
                 static_cast<unsigned long long>(a.audit_violations));
  }
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  return outcome.ok() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("simulate",
                       "run any iba allocation process with full control");
  parser.add_flag("process", "capped | modcapped | greedy | capped-greedy",
                  "capped");
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
  parser.add_flag("arrival", "deterministic | binomial | poisson",
                  "deterministic");
  parser.add_flag("kernel", "bin-major | scalar (capped only)", "bin-major");
  parser.add_flag("shards",
                  "parallel bin ranges per round (capped bin-major only)",
                  "1");
  parser.add_flag("pool-limit",
                  "pool bound for backpressure (0 = unbounded)", "0");
  parser.add_flag("backpressure", "none | shed | defer (capped only)",
                  "none");
  parser.add_flag("backoff", "defer-retry backoff, rounds", "4");
  parser.add_flag("control",
                  "adaptive capacity policy: none | static | sweet-spot | "
                  "aimd (capped only)",
                  "none");
  parser.add_flag("c-max", "controller capacity ceiling, 1..65535", "16");
  parser.add_flag("control-window", "estimator window, rounds", "64");
  parser.add_flag("cooldown",
                  "min rounds between applied control changes", "128");
  parser.add_flag("control-hysteresis",
                  "policy dead band in [0, 1]", "0.1");
  parser.add_flag("admission-target",
                  "AIMD the pool limit toward this p95 wait bound "
                  "(0 = off; requires backpressure)",
                  "0");
  parser.add_flag("faults",
                  "fault schedule, e.g. 'crash@50:bins=0-63,down=20;"
                  "random-crash:p=0.001,down=5-40' (capped only)",
                  "");
  parser.add_flag("fault-seed", "seed of the fault RNG stream", "1");
  parser.add_flag("audit-every",
                  "run deep invariant audits every K rounds (0 = off; "
                  "violations exit 3)",
                  "0");
  parser.add_flag("trace-csv", "per-round trace CSV path (not capped)", "");
  parser.add_flag("timeseries-out",
                  "write the multi-tier per-round time series here "
                  "(capped only)",
                  "");
  parser.add_flag("ts-cadence",
                  "time-series sampling cadence, rounds", "1");
  parser.add_flag("flight-recorder",
                  "arm the flight recorder; the postmortem bundle lands "
                  "here on the first auditor violation (capped only)",
                  "");
  parser.add_flag("resume", "run --rounds more rounds from this file", "");
  parser.add_flag("checkpoint-out", "save capped state after the run", "");
  parser.add_flag("checkpoint-every",
                  "also checkpoint at every round that is a multiple of "
                  "K (requires --checkpoint-out)",
                  "0");
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
    io::guard_overwrite(parser.get("checkpoint-out"), force,
                        "--checkpoint-out");
    io::guard_overwrite(parser.get("timeseries-out"), force,
                        "--timeseries-out");
    io::guard_overwrite(parser.get("flight-recorder"), force,
                        "--flight-recorder");

    sim::RunSpec spec;
    spec.measure_rounds = parser.get_uint_range("rounds", 1, UINT64_MAX);
    spec.burn_in = parser.provided("burnin") && parser.get_uint("burnin") > 0
                       ? parser.get_uint("burnin")
                       : sim::suggested_burn_in(lambda);

    const auto seed = parser.get_uint("seed");
    const auto lambda_n = core::CappedConfig::from_rate(n, lambda, 1).lambda_n;

    if (process_name == "capped") {
      return capped_cli(parser);
    } else if (process_name == "modcapped") {
      core::ModCappedConfig config;
      config.n = n;
      config.capacity =
          static_cast<std::uint32_t>(parser.get_uint_range("c", 1, 65535));
      config.lambda_n = lambda_n;
      core::ModCapped process(config, core::Engine(seed));
      const auto result = run_with_trace(process, spec, trace_path);
      report("MODCAPPED", n, lambda, report_of(result), as_json);
    } else if (process_name == "greedy") {
      core::BatchGreedyConfig config;
      config.n = n;
      config.d = static_cast<std::uint32_t>(parser.get_uint_range("d", 1, 16));
      config.lambda_n = lambda_n;
      core::BatchGreedy process(config, core::Engine(seed));
      const auto result = run_with_trace(process, spec, trace_path);
      report("GREEDY[" + std::to_string(config.d) + "]", n, lambda,
             report_of(result), as_json);
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
      report("CAPPED-GREEDY", n, lambda, report_of(result), as_json);
    } else {
      throw io::UsageError("simulate: unknown --process '" + process_name +
                           "'");
    }
  } catch (const iba::ContractViolation& error) {
    io::fail_usage(error.what());  // covers io::UsageError too
  } catch (const fault::ScheduleError& error) {
    io::fail_usage(error.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
