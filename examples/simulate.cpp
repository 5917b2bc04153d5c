// simulate — the library's kitchen-sink command-line driver: every
// process, policy, and measurement knob behind one binary, with table,
// JSON, trace-CSV, and checkpoint outputs. The tool a downstream user
// reaches for before writing code against the API.
//
//   $ ./simulate --process capped --n 8192 --c 2 --lambda 0.9375
//   $ ./simulate --process capped-greedy --d 2 --trace-csv trace.csv
//   $ ./simulate --faults "crash@50:bins=0-63,down=20" --audit-every 1
//   $ ./simulate --checkpoint-every 500 --checkpoint-out state.ckpt
//   $ ./simulate --resume state.ckpt --rounds 1000   # bit-identical
//
// Exit codes: 0 success, 1 runtime error, 2 usage error (bad flag or
// out-of-domain parameter), 3 invariant violation detected by the
// auditor.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/bounds.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "core/modcapped.hpp"
#include "fault/auditor.hpp"
#include "fault/fault_plan.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/sealed.hpp"
#include "io/table.hpp"
#include "sim/checkpoint.hpp"
#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace {

using namespace iba;

core::ArrivalModel parse_arrival(const std::string& text) {
  if (text == "deterministic") return core::ArrivalModel::kDeterministic;
  if (text == "binomial") return core::ArrivalModel::kBinomial;
  if (text == "poisson") return core::ArrivalModel::kPoisson;
  throw io::UsageError("simulate: unknown --arrival '" + text + "'");
}

core::DeletionDiscipline parse_deletion(const std::string& text) {
  if (text == "fifo") return core::DeletionDiscipline::kFifo;
  if (text == "lifo") return core::DeletionDiscipline::kLifo;
  if (text == "uniform") return core::DeletionDiscipline::kUniform;
  throw io::UsageError("simulate: unknown --deletion '" + text + "'");
}

core::AcceptanceOrder parse_acceptance(const std::string& text) {
  if (text == "oldest-first") return core::AcceptanceOrder::kOldestFirst;
  if (text == "youngest-first") return core::AcceptanceOrder::kYoungestFirst;
  throw io::UsageError("simulate: unknown --acceptance '" + text + "'");
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

/// Rounds per second over a measured window that began at `start`.
double rounds_per_second(std::uint64_t rounds,
                         std::chrono::steady_clock::time_point start) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return elapsed > 0 ? static_cast<double>(rounds) / elapsed : 0.0;
}

/// The --control* flag family, range-validated (bad values exit 2).
control::ControlConfig parse_control(const io::ArgParser& parser) {
  control::ControlConfig ctrl;
  const std::string name = parser.get("control");
  if (!control::policy_from_string(name, ctrl.policy)) {
    throw io::UsageError(
        "simulate: --control expects none, static, sweet-spot or aimd, "
        "got '" + name + "'");
  }
  ctrl.c_max =
      static_cast<std::uint32_t>(parser.get_uint_range("c-max", 1, 65535));
  ctrl.window = static_cast<std::uint32_t>(
      parser.get_uint_range("control-window", 1, 1u << 16));
  ctrl.cooldown = static_cast<std::uint32_t>(
      parser.get_uint_range("cooldown", 1, 1u << 20));
  ctrl.hysteresis =
      parser.get_double_range("control-hysteresis", 0.0, 1.0, false, false);
  ctrl.admission_target = parser.get_uint("admission-target");
  return ctrl;
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
    result.wait_stddev = process.waits().stddev();
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
        .key("max_load_mean").value(result.max_load.mean())
        .key("rounds_per_second").value(result.rounds_per_second)
        .end_object();
    std::cout << '\n';
    return;
  }
  io::Table table({"metric", "value"});
  table.set_title(process_name + " results");
  table.add_row({"burn-in rounds",
                 io::Table::format_number(
                     static_cast<double>(result.burn_in_used))});
  table.add_row({"measured rounds",
                 io::Table::format_number(
                     static_cast<double>(result.measured_rounds))});
  table.add_row({"pool size (avg)",
                 io::Table::format_number(result.pool.mean())});
  table.add_row({"pool / n",
                 io::Table::format_number(result.normalized_pool.mean())});
  table.add_row({"waiting time (avg)",
                 io::Table::format_number(result.wait_mean)});
  table.add_row({"waiting time (p99<=)",
                 io::Table::format_number(result.wait_p99_upper)});
  table.add_row({"waiting time (max)",
                 io::Table::format_number(
                     static_cast<double>(result.wait_max))});
  table.add_row({"max load (avg)",
                 io::Table::format_number(result.max_load.mean())});
  table.add_row({"throughput (rounds/s)",
                 io::Table::format_number(result.rounds_per_second)});
  table.print();
}

/// The CAPPED driver: fault injection, online auditing, periodic
/// crash-safe checkpoints, resume, and per-round tracing in one loop.
/// Returns the process exit code.
int run_capped_cli(const io::ArgParser& parser, sim::RunSpec spec,
                   std::uint32_t n, double lambda, std::uint64_t lambda_n,
                   std::uint64_t seed) {
  core::CappedConfig config;
  config.n = n;
  config.capacity = parse_capacity(parser);
  config.lambda_n = lambda_n;
  config.arrival = parse_arrival(parser.get("arrival"));
  config.deletion = parse_deletion(parser.get("deletion"));
  config.acceptance = parse_acceptance(parser.get("acceptance"));
  config.failure_probability =
      parser.get_double_range("failure-prob", 0.0, 1.0, false, true);
  const std::string kernel_name = parser.get("kernel");
  if (!core::kernel_from_string(kernel_name, config.kernel)) {
    throw io::UsageError("simulate: --kernel expects bin-major or scalar, "
                         "got '" + kernel_name + "'");
  }
  config.shards =
      static_cast<std::uint32_t>(parser.get_uint_range("shards", 1, n));
  config.pool_limit = parser.get_uint("pool-limit");
  const std::string bp_name = parser.get("backpressure");
  if (!core::backpressure_from_string(bp_name, config.backpressure)) {
    throw io::UsageError("simulate: --backpressure expects none, shed or "
                         "defer, got '" + bp_name + "'");
  }
  if (config.backpressure != core::BackpressureMode::kNone &&
      config.pool_limit == 0) {
    throw io::UsageError(
        "simulate: --backpressure requires --pool-limit > 0");
  }
  config.backoff_rounds = static_cast<std::uint32_t>(
      parser.get_uint_range("backoff", 1, 1u << 20));
  config.control = parse_control(parser);
  if (config.control.enabled()) {
    if (config.capacity > config.control.c_max) {
      throw io::UsageError("simulate: --c " +
                           std::to_string(config.capacity) +
                           " exceeds --c-max " +
                           std::to_string(config.control.c_max));
    }
    if (config.control.admission_target > 0 &&
        config.backpressure == core::BackpressureMode::kNone) {
      throw io::UsageError(
          "simulate: --admission-target requires --backpressure shed or "
          "defer (and --pool-limit)");
    }
  } else if (parser.get_uint("admission-target") > 0) {
    throw io::UsageError(
        "simulate: --admission-target requires --control (static, "
        "sweet-spot or aimd)");
  }

  const std::string fault_text = parser.get("faults");
  const std::uint64_t fault_seed = parser.get_uint("fault-seed");
  std::string resume_path = parser.get("resume");
  if (resume_path.empty()) resume_path = parser.get("checkpoint-in");
  const std::string checkpoint_out = parser.get("checkpoint-out");
  const std::uint64_t checkpoint_every = parser.get_uint("checkpoint-every");
  if (checkpoint_every > 0 && checkpoint_out.empty()) {
    throw io::UsageError(
        "simulate: --checkpoint-every requires --checkpoint-out");
  }
  const std::uint64_t audit_every = parser.get_uint("audit-every");
  const std::string trace_path = parser.get("trace-csv");

  std::unique_ptr<core::Capped> process;
  std::unique_ptr<fault::FaultPlan> plan;
  bool resumed = false;
  if (!resume_path.empty()) {
    resumed = true;
    sim::Checkpoint ckpt = sim::load_checkpoint_full(resume_path);
    // The checkpoint's control configuration is authoritative (it is
    // part of the resumed trajectory); a conflicting --control on the
    // command line is a hard usage error, not a silent override.
    if (parser.provided("control") &&
        config.control.policy != ckpt.snapshot.config.control.policy) {
      throw io::UsageError(
          "simulate: --control '" +
          std::string(control::to_string(config.control.policy)) +
          "' disagrees with checkpoint field control.policy = '" +
          std::string(
              control::to_string(ckpt.snapshot.config.control.policy)) +
          "' (resume keeps the saved policy; drop --control or re-run "
          "fresh)");
    }
    process = std::make_unique<core::Capped>(ckpt.snapshot);
    if (ckpt.has_fault_state) {
      // The checkpoint's schedule is authoritative: the plan resumes the
      // recorded fault trajectory, not a fresh one. Under adaptive
      // control the plan validates against c_max (the capacity ceiling)
      // — the saved capacity may be mid-shrink.
      const auto& rc = ckpt.snapshot.config;
      plan = std::make_unique<fault::FaultPlan>(
          fault::parse_schedule(ckpt.fault_schedule), rc.n,
          rc.control.enabled() ? rc.control.c_max : rc.capacity,
          ckpt.fault_seed);
      plan->restore(ckpt.fault_state);
    }
    std::fprintf(stderr, "[checkpoint] resumed from %s at round %llu%s\n",
                 resume_path.c_str(),
                 static_cast<unsigned long long>(process->round()),
                 plan != nullptr ? " (fault plan restored)" : "");
    spec.burn_in = 0;  // the checkpoint is already in steady state
  } else {
    process = std::make_unique<core::Capped>(config, core::Engine(seed));
    if (!fault_text.empty()) {
      plan = std::make_unique<fault::FaultPlan>(
          fault::parse_schedule(fault_text), config.n,
          config.control.enabled() ? config.control.c_max : config.capacity,
          fault_seed);
    }
  }
  if (plan != nullptr) process->set_fault_plan(plan.get());

  std::optional<fault::InvariantAuditor> auditor;
  if (audit_every > 0) auditor.emplace(audit_every);

  // Recording: a per-round time series and an armed flight recorder
  // whose bundle dumps on the first auditor violation. Both inert with
  // -DIBA_TELEMETRY=OFF.
  const std::string timeseries_out = parser.get("timeseries-out");
  const std::string flight_recorder = parser.get("flight-recorder");
  const bool recording = telemetry::TimeSeries::kEnabled &&
                         (!timeseries_out.empty() || !flight_recorder.empty());
  std::optional<telemetry::TimeSeries> series;
  std::optional<telemetry::FlightRecorder> recorder;
  std::uint64_t seen_violations = 0;
  if (recording) {
    telemetry::TimeSeriesConfig ts_config;
    ts_config.cadence = parser.get_uint_range("ts-cadence", 1, UINT64_MAX);
    series.emplace(ts_config);
    recorder.emplace();
    recorder->attach_time_series(&*series);
    recorder->set_context("simulate", "-", seed, process->n());
    process->set_time_series(&*series);
  }
  const auto record_round = [&] {
    if (!recording || !auditor.has_value() ||
        auditor->violation_count() <= seen_violations) {
      return;
    }
    seen_violations = auditor->violation_count();
    std::string detail = "invariant violation";
    if (!auditor->violations().empty()) {
      const auto& v = auditor->violations().back();
      detail = v.invariant + ": " + v.detail;
    }
    recorder->note_event(process->round(), "audit-violation", detail);
    if (recorder->trigger(telemetry::TriggerKind::kAuditorViolation,
                          process->round(), detail) &&
        !flight_recorder.empty()) {
      recorder->write_bundle(flight_recorder);
      std::fprintf(stderr, "[recorder] wrote %s\n", flight_recorder.c_str());
    }
  };

  const auto save = [&](const std::string& path) {
    sim::Checkpoint ckpt;
    ckpt.snapshot = process->snapshot();
    if (plan != nullptr) {
      ckpt.has_fault_state = true;
      ckpt.fault_schedule = fault::to_string(plan->schedule());
      ckpt.fault_seed = plan->seed();
      ckpt.fault_state = plan->state();
    }
    sim::save_checkpoint(ckpt, path);
  };

  sim::TraceRecorder trace;
  sim::RunResult result;
  result.burn_in_used = spec.burn_in;
  result.measured_rounds = spec.measure_rounds;
  double wait_sum = 0;
  std::uint64_t since_checkpoint = 0;
  const auto maybe_checkpoint = [&] {
    if (checkpoint_every == 0) return;
    if (++since_checkpoint < checkpoint_every) return;
    since_checkpoint = 0;
    save(checkpoint_out);
  };

  for (std::uint64_t i = 0; i < spec.burn_in; ++i) {
    const auto m = process->step();
    if (auditor.has_value()) auditor->observe(*process, m);
    record_round();
    maybe_checkpoint();
  }
  // A resumed run continues the saved cumulative wait statistics
  // bit-for-bit; resetting them would fork from the uninterrupted run.
  if (!resumed) process->reset_wait_stats();

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < spec.measure_rounds; ++i) {
    const auto m = process->step();
    if (auditor.has_value()) auditor->observe(*process, m);
    record_round();
    if (!trace_path.empty()) trace.observe(m);
    result.pool.add(static_cast<double>(m.pool_size));
    result.normalized_pool.add(static_cast<double>(m.pool_size) /
                               static_cast<double>(process->n()));
    result.max_load.add(static_cast<double>(m.max_load));
    result.system_load.add(static_cast<double>(m.pool_size + m.total_load));
    result.deletions += m.wait_count;
    wait_sum += m.wait_sum;
    if (m.wait_max > result.wait_max) result.wait_max = m.wait_max;
    maybe_checkpoint();
  }
  result.rounds_per_second = rounds_per_second(spec.measure_rounds, start);
  if (result.deletions > 0) {
    result.wait_mean = wait_sum / static_cast<double>(result.deletions);
  }
  result.wait_stddev = process->waits().stddev();
  result.wait_p99_upper =
      static_cast<double>(process->waits().quantile_upper_bound(0.99));
  if (!trace_path.empty()) {
    trace.write_csv(trace_path);
    std::fprintf(stderr, "[trace] wrote %s (%zu rounds)\n", trace_path.c_str(),
                 static_cast<std::size_t>(spec.measure_rounds));
  }

  // Report the geometry actually run — on resume that is the
  // checkpoint's, not the CLI defaults.
  report("CAPPED", process->n(), process->lambda(), result,
         parser.get_bool("json"));
  (void)n;
  (void)lambda;
  if (process->controller() != nullptr) {
    const control::Controller* ctl = process->controller();
    std::fprintf(
        stderr,
        "[control] policy=%s capacity_now=%u lambda_hat=%.4f changes=%llu "
        "grows=%llu shrinks=%llu\n",
        std::string(control::to_string(ctl->config().policy)).c_str(),
        process->capacity(), ctl->estimator().lambda_ewma(),
        static_cast<unsigned long long>(ctl->changes_total()),
        static_cast<unsigned long long>(ctl->grows_total()),
        static_cast<unsigned long long>(ctl->shrinks_total()));
    for (const auto& d : ctl->decisions()) {
      std::fprintf(stderr,
                   "[control] round %llu: c %u -> %u, pool_limit %llu -> "
                   "%llu (lambda_hat=%.4f wait=%.2f)\n",
                   static_cast<unsigned long long>(d.round), d.old_capacity,
                   d.new_capacity,
                   static_cast<unsigned long long>(d.old_pool_limit),
                   static_cast<unsigned long long>(d.new_pool_limit),
                   d.lambda_hat, d.mean_wait);
    }
  }
  if (plan != nullptr) {
    std::fprintf(stderr,
                 "[faults] crashes=%llu repairs=%llu straggler_skips=%llu "
                 "down_now=%llu\n",
                 static_cast<unsigned long long>(plan->crashes_total()),
                 static_cast<unsigned long long>(plan->repairs_total()),
                 static_cast<unsigned long long>(plan->straggler_skips_total()),
                 static_cast<unsigned long long>(plan->down_bins()));
  }
  if (!checkpoint_out.empty()) {
    save(checkpoint_out);
    std::fprintf(stderr, "[checkpoint] saved %s\n", checkpoint_out.c_str());
  }
  if (recording && !timeseries_out.empty()) {
    io::sealed::commit(timeseries_out, series->render_text(),
                       "simulate timeseries");
    std::fprintf(stderr, "[timeseries] wrote %s (%llu rounds)\n",
                 timeseries_out.c_str(),
                 static_cast<unsigned long long>(series->rounds_observed()));
  }
  if (auditor.has_value()) {
    std::fprintf(stderr,
                 "[audit] rounds=%llu deep=%llu violations=%llu\n",
                 static_cast<unsigned long long>(auditor->rounds_audited()),
                 static_cast<unsigned long long>(auditor->deep_audits()),
                 static_cast<unsigned long long>(auditor->violation_count()));
    if (!auditor->ok()) {
      for (const auto& v : auditor->violations()) {
        std::fprintf(stderr, "[audit] round %llu: %s: %s\n",
                     static_cast<unsigned long long>(v.round),
                     v.invariant.c_str(), v.detail.c_str());
      }
      return 3;
    }
  }
  return 0;
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
  parser.add_flag("burnin", "burn-in rounds (0 = auto)", "0");
  parser.add_flag("seed", "random seed", "1");
  parser.add_flag("arrival", "deterministic | binomial | poisson",
                  "deterministic");
  parser.add_flag("deletion", "fifo | lifo | uniform", "fifo");
  parser.add_flag("acceptance", "oldest-first | youngest-first",
                  "oldest-first");
  parser.add_flag("failure-prob", "per-bin service failure probability",
                  "0");
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
  parser.add_flag("trace-csv", "write per-round trace CSV to this path", "");
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
  parser.add_flag("checkpoint-in", "resume a capped run from this file", "");
  parser.add_flag("resume", "alias for --checkpoint-in", "");
  parser.add_flag("checkpoint-out", "save capped state after the run", "");
  parser.add_flag("checkpoint-every",
                  "also checkpoint every K rounds during the run "
                  "(requires --checkpoint-out)",
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
    spec.auto_burn_in = false;

    const auto seed = parser.get_uint("seed");
    const auto lambda_n = core::CappedConfig::from_rate(n, lambda, 1).lambda_n;

    if (process_name == "capped") {
      return run_capped_cli(parser, spec, n, lambda, lambda_n, seed);
    } else if (process_name == "modcapped") {
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
      throw io::UsageError("simulate: unknown --process '" + process_name +
                           "'");
    }
  } catch (const io::UsageError& error) {
    io::fail_usage(error.what());
  } catch (const fault::ScheduleError& error) {
    io::fail_usage(error.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
