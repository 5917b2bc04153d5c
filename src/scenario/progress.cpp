#include "scenario/progress.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/sealed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace iba::scenario {

namespace {

constexpr std::string_view kProgressMagic = "iba-scenario-progress";
constexpr std::uint32_t kProgressVersion = 1;
constexpr const char* kProgressContext = "scenario progress";

[[noreturn]] void fail_progress(const std::string& message) {
  throw std::runtime_error(std::string(kProgressContext) + ": " + message);
}

constexpr std::string_view kRecordMagic = "iba-scenario-record";
constexpr std::uint32_t kRecordVersion = 1;
constexpr std::string_view kRecordSplit = "--recorder--\n";
constexpr const char* kRecordContext = "scenario record sidecar";

/// The sidecar's integer fields, in file order after `digest`.
constexpr std::pair<std::string_view, std::uint64_t Progress::*> kFields[] = {
    {"seed", &Progress::seed},
    {"rounds-done", &Progress::rounds_done},
    {"audit-rounds", &Progress::audit_rounds},
    {"audit-violations", &Progress::audit_violations},
    {"pool-sum", &Progress::pool_sum},
    {"pool-min", &Progress::pool_min},
    {"pool-max", &Progress::pool_max},
    {"pool-last", &Progress::pool_last},
    {"load-sum", &Progress::load_sum},
    {"max-load-peak", &Progress::max_load_peak},
    {"empty-bins-last", &Progress::empty_bins_last},
    {"requeued-sum", &Progress::requeued_sum},
    {"faulted-bin-rounds", &Progress::faulted_bin_rounds},
    {"shed-measured", &Progress::shed_measured},
    {"oldest-age-max", &Progress::oldest_age_max},
};

}  // namespace

void save_progress(const Progress& progress, const std::string& path) {
  std::ostringstream out;
  out << "digest = " << progress.digest << '\n';
  for (const auto& [key, field] : kFields) {
    out << key << " = " << progress.*field << '\n';
  }
  out << "end\n";
  io::sealed::commit_header(path, kProgressMagic, kProgressVersion, out.str(),
                            kProgressContext);
}

Progress load_progress(const std::string& path) {
  const std::string body = io::sealed::load_header(
      path, kProgressMagic, kProgressVersion, kProgressContext);
  Progress p;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line == "end") return p;
    const std::size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      fail_progress("malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    if (key == "digest") {
      p.digest = value;
      continue;
    }
    const auto* entry = std::find_if(
        std::begin(kFields), std::end(kFields),
        [&key](const auto& candidate) { return candidate.first == key; });
    if (entry == std::end(kFields)) fail_progress("unknown field '" + key + "'");
    try {
      p.*entry->second = std::stoull(value);
    } catch (const std::exception&) {
      fail_progress("invalid field " + key + ": '" + value + "'");
    }
  }
  fail_progress("missing end marker");
}

void save_record(const telemetry::TimeSeries& series,
                 const telemetry::FlightRecorder& recorder,
                 const std::string& path) {
  io::sealed::commit_header(
      path, kRecordMagic, kRecordVersion,
      series.state_text() + std::string(kRecordSplit) + recorder.state_text(),
      kRecordContext);
}

void load_record(telemetry::TimeSeries& series,
                 telemetry::FlightRecorder& recorder,
                 const std::string& path) {
  const std::string body =
      io::sealed::load_header(path, kRecordMagic, kRecordVersion, kRecordContext);
  const std::size_t split = body.find(kRecordSplit);
  if (split == std::string::npos) {
    throw std::runtime_error(std::string(kRecordContext) +
                             ": missing recorder section");
  }
  series.restore_state(body.substr(0, split));
  recorder.restore_state(body.substr(split + kRecordSplit.size()));
}

void accumulate_progress(Progress& progress, const core::RoundMetrics& m) {
  progress.pool_sum += m.pool_size;
  if (m.pool_size < progress.pool_min) progress.pool_min = m.pool_size;
  if (m.pool_size > progress.pool_max) progress.pool_max = m.pool_size;
  progress.pool_last = m.pool_size;
  progress.load_sum += m.total_load;
  if (m.max_load > progress.max_load_peak) {
    progress.max_load_peak = m.max_load;
  }
  progress.empty_bins_last = m.empty_bins;
  progress.requeued_sum += m.requeued;
  progress.faulted_bin_rounds += m.faulted_bins;
  progress.shed_measured += m.shed;
  if (m.oldest_pool_age > progress.oldest_age_max) {
    progress.oldest_age_max = m.oldest_pool_age;
  }
}

core::CappedConfig capped_config(const Scenario& scn) {
  core::CappedConfig config;
  config.n = scn.n;
  config.capacity = scn.capacity;
  scn.arrival.apply_to(scn.n, config.arrival, config.lambda_n);
  config.pool_limit = scn.pool_limit;
  config.backpressure = scn.backpressure;
  config.backoff_rounds = scn.backoff;
  config.control = scn.control;
  return config;
}

void fill_artifact(artifact::ResultArtifact& result, const Scenario& scn,
                   const std::string& digest, std::uint64_t seed,
                   const Progress& progress, const RunTotals& totals) {
  result.scenario_name = scn.name;
  result.scenario_digest = digest;
  result.seed = seed;
  result.n = scn.n;
  result.capacity_initial = scn.capacity;
  result.burn_in = scn.burn_in;
  result.rounds = scn.rounds;

  result.generated_total = totals.generated_total;
  result.deleted_total = totals.deleted_total;
  result.shed_total = totals.shed_total;
  result.deferred_end = totals.deferred_end;

  result.pool_sum = progress.pool_sum;
  result.pool_min = progress.pool_min == UINT64_MAX ? 0 : progress.pool_min;
  result.pool_max = progress.pool_max;
  result.pool_last = progress.pool_last;
  result.load_sum = progress.load_sum;
  result.max_load_peak = progress.max_load_peak;
  result.empty_bins_last = progress.empty_bins_last;
  result.requeued_sum = progress.requeued_sum;
  result.faulted_bin_rounds = progress.faulted_bin_rounds;
  result.shed_measured = progress.shed_measured;
  result.oldest_age_max = progress.oldest_age_max;

  result.wait_count = totals.waits.count;
  result.wait_sum = totals.waits.sum;
  result.wait_sumsq_hi = totals.waits.sumsq_hi;
  result.wait_sumsq_lo = totals.waits.sumsq_lo;
  result.wait_max = totals.waits.max;
  result.wait_p50 = totals.wait_p50;
  result.wait_p99 = totals.wait_p99;
  result.wait_histogram = totals.waits.histogram;
}

void evaluate_expectations(const Scenario& scn,
                           artifact::ResultArtifact& artifact) {
  const Expectations& expect = scn.expect;
  const auto add = [&artifact](std::string name, std::string bound,
                               std::string observed, bool pass) {
    artifact.checks.push_back({std::move(name), std::move(bound),
                               std::move(observed), pass});
  };
  const auto fmt = [](double value) { return detail::format_double(value); };

  if (expect.max_pool_over_n > 0.0) {
    // pool_max/n <= bound  ⇔  pool_max <= bound·n (one rounding, same
    // everywhere).
    const bool pass =
        static_cast<double>(artifact.pool_max) <=
        expect.max_pool_over_n * static_cast<double>(artifact.n);
    add("max-pool-over-n", fmt(expect.max_pool_over_n),
        std::to_string(artifact.pool_max) + "/" + std::to_string(artifact.n),
        pass);
  }
  if (expect.max_wait_mean > 0.0) {
    // wait_sum/wait_count <= bound  ⇔  wait_sum <= bound·count.
    const bool pass =
        static_cast<double>(artifact.wait_sum) <=
        expect.max_wait_mean * static_cast<double>(artifact.wait_count);
    add("max-wait-mean", fmt(expect.max_wait_mean),
        std::to_string(artifact.wait_sum) + "/" +
            std::to_string(artifact.wait_count),
        artifact.wait_count == 0 || pass);
  }
  if (expect.max_wait_p99 > 0) {
    add("max-wait-p99", std::to_string(expect.max_wait_p99),
        std::to_string(artifact.wait_p99),
        artifact.wait_p99 <= expect.max_wait_p99);
  }
  if (expect.max_wait_max > 0) {
    add("max-wait-max", std::to_string(expect.max_wait_max),
        std::to_string(artifact.wait_max),
        artifact.wait_max <= expect.max_wait_max);
  }
  if (expect.max_shed != UINT64_MAX) {
    add("max-shed", std::to_string(expect.max_shed),
        std::to_string(artifact.shed_total),
        artifact.shed_total <= expect.max_shed);
  }
}

bool check_expectations(const Scenario& scn,
                        artifact::ResultArtifact& artifact,
                        std::vector<std::string>& failures) {
  evaluate_expectations(scn, artifact);
  bool ok = true;
  for (const artifact::ExpectationCheck& check : artifact.checks) {
    if (!check.pass) {
      ok = false;
      failures.push_back("expect: " + check.name + ": bound " + check.bound +
                         ", observed " + check.observed);
    }
  }
  return ok;
}

}  // namespace iba::scenario
