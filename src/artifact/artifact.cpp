#include "artifact/artifact.hpp"

#include <sstream>

#include "io/sealed.hpp"

namespace iba::artifact {

namespace {

constexpr std::string_view kMagic = "iba-artifact";
constexpr const char* kContext = "artifact";

}  // namespace

Observables observables(const ResultArtifact& a) {
  const auto rounds = static_cast<double>(a.rounds);
  const auto n = static_cast<double>(a.n);
  Observables o;
  o.pool_mean = static_cast<double>(a.pool_sum) / rounds;
  o.pool_over_n = o.pool_mean / n;
  o.system_load_over_n =
      static_cast<double>(a.pool_sum + a.load_sum) / rounds / n;
  if (a.wait_count > 0) {
    o.wait_mean =
        static_cast<double>(a.wait_sum) / static_cast<double>(a.wait_count);
  }
  o.wait_max = a.wait_max;
  o.wait_p99 = a.wait_p99;
  o.pool_max = a.pool_max;
  o.deletions = a.wait_count;
  return o;
}

std::string render_artifact(const ResultArtifact& artifact) {
  std::ostringstream out;
  out << "scenario = " << artifact.scenario_name << '\n';
  out << "digest = " << artifact.scenario_digest << '\n';
  out << "seed = " << artifact.seed << '\n';
  out << "n = " << artifact.n << '\n';
  out << "c = " << artifact.capacity_initial << '\n';
  out << "burn-in = " << artifact.burn_in << '\n';
  out << "rounds = " << artifact.rounds << '\n';

  out << "[counters]\n";
  out << "generated = " << artifact.generated_total << '\n';
  out << "deleted = " << artifact.deleted_total << '\n';
  out << "shed = " << artifact.shed_total << '\n';
  out << "deferred-end = " << artifact.deferred_end << '\n';

  out << "[measured]\n";
  out << "pool-sum = " << artifact.pool_sum << '\n';
  out << "pool-min = " << artifact.pool_min << '\n';
  out << "pool-max = " << artifact.pool_max << '\n';
  out << "pool-last = " << artifact.pool_last << '\n';
  out << "load-sum = " << artifact.load_sum << '\n';
  out << "max-load-peak = " << artifact.max_load_peak << '\n';
  out << "empty-bins-last = " << artifact.empty_bins_last << '\n';
  out << "requeued-sum = " << artifact.requeued_sum << '\n';
  out << "faulted-bin-rounds = " << artifact.faulted_bin_rounds << '\n';
  out << "shed-measured = " << artifact.shed_measured << '\n';
  out << "oldest-age-max = " << artifact.oldest_age_max << '\n';

  out << "[waits]\n";
  out << "count = " << artifact.wait_count << '\n';
  out << "sum = " << artifact.wait_sum << '\n';
  out << "sumsq-hi = " << artifact.wait_sumsq_hi << '\n';
  out << "sumsq-lo = " << artifact.wait_sumsq_lo << '\n';
  out << "max = " << artifact.wait_max << '\n';
  out << "p50-upper = " << artifact.wait_p50 << '\n';
  out << "p99-upper = " << artifact.wait_p99 << '\n';
  out << "histogram =";
  for (const std::uint64_t count : artifact.wait_histogram) {
    out << ' ' << count;
  }
  out << '\n';

  if (artifact.has_faults) {
    out << "[faults]\n";
    out << "crashes = " << artifact.crashes << '\n';
    out << "repairs = " << artifact.repairs << '\n';
    out << "straggler-skips = " << artifact.straggler_skips << '\n';
  }

  if (artifact.has_control) {
    out << "[control]\n";
    out << "capacity-final = " << artifact.capacity_final << '\n';
    out << "changes = " << artifact.control_changes << '\n';
    out << "grows = " << artifact.control_grows << '\n';
    out << "shrinks = " << artifact.control_shrinks << '\n';
  }

  if (artifact.audited) {
    out << "[audit]\n";
    out << "rounds = " << artifact.audit_rounds << '\n';
    out << "violations = " << artifact.audit_violations << '\n';
  }

  if (!artifact.checks.empty()) {
    out << "[expectations]\n";
    for (const ExpectationCheck& check : artifact.checks) {
      out << check.name << " = bound " << check.bound << " observed "
          << check.observed << ' ' << (check.pass ? "pass" : "FAIL") << '\n';
    }
  }

  out << "end\n";
  return io::sealed::seal_trailer(kMagic, kFormatVersion, out.str());
}

void write_artifact(const ResultArtifact& artifact, const std::string& path) {
  io::sealed::commit(path, render_artifact(artifact), kContext);
}

void verify_artifact_text(const std::string& text) {
  io::sealed::verify_trailer(text, kMagic, kFormatVersion, kContext);
}

std::string read_artifact_text(const std::string& path) {
  std::string text = io::sealed::read_file(path, kContext);
  verify_artifact_text(text);
  return text;
}

}  // namespace iba::artifact
