// Measured-window accumulators, the `<checkpoint>.progress` and
// `.record` sidecars, and the artifact-assembly helpers shared by every
// scenario runner —
// the single-process run_scenario (scenario/runner.cpp) and the
// distributed coordinator loop (dist/runner.cpp).
//
// Sharing is what keeps the two byte-identical: the engine
// configuration, the accumulators, the sidecar format, the expectation
// evaluation and the artifact field fill are one implementation, so
// "same scenario + seed → same artifact bytes" holds across process
// topologies by construction, not by parallel maintenance of two
// copies.
//
// The process checkpoint carries the trajectory; Progress carries the
// runner's own state, so a resumed run finishes with accumulator values
// byte-identical to the uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/capped.hpp"
#include "core/metrics.hpp"
#include "scenario/scenario.hpp"

namespace iba::telemetry {
class FlightRecorder;
class TimeSeries;
}  // namespace iba::telemetry

namespace iba::scenario {

/// Measured-window accumulators + run identity, persisted beside the
/// checkpoint as `<path>.progress`.
struct Progress {
  std::string digest;       ///< Scenario::digest() of the running config
  std::uint64_t seed = 0;   ///< effective seed (identity check on resume)
  std::uint64_t rounds_done = 0;
  std::uint64_t audit_rounds = 0;      ///< completed segments only
  std::uint64_t audit_violations = 0;  ///< completed segments only

  std::uint64_t pool_sum = 0;
  std::uint64_t pool_min = UINT64_MAX;
  std::uint64_t pool_max = 0;
  std::uint64_t pool_last = 0;
  std::uint64_t load_sum = 0;
  std::uint64_t max_load_peak = 0;
  std::uint64_t empty_bins_last = 0;
  std::uint64_t requeued_sum = 0;
  std::uint64_t faulted_bin_rounds = 0;
  std::uint64_t shed_measured = 0;
  std::uint64_t oldest_age_max = 0;
};

/// Atomically writes the CRC-bound sidecar (io::sealed). Throws
/// std::runtime_error on IO failure.
void save_progress(const Progress& progress, const std::string& path);

/// Reads and validates a sidecar. Throws std::runtime_error on IO
/// errors, bad header, CRC mismatch, or malformed fields.
[[nodiscard]] Progress load_progress(const std::string& path);

/// Folds one measured-window (post-burn-in) round into the accumulators.
/// Callers update rounds_done themselves — burn-in rounds advance it
/// without contributing here.
void accumulate_progress(Progress& progress, const core::RoundMetrics& m);

/// The `.record` sidecar: a recording run's time-series rings and
/// flight-recorder logs, which a resume needs to reproduce the series
/// and bundle bytes. Both throw std::runtime_error on IO failure or
/// damage.
void save_record(const telemetry::TimeSeries& series,
                 const telemetry::FlightRecorder& recorder,
                 const std::string& path);
void load_record(telemetry::TimeSeries& series,
                 telemetry::FlightRecorder& recorder, const std::string& path);

/// Lifetime counters + wait state a finished run contributes to the
/// artifact — the process-side complement of Progress.
struct RunTotals {
  std::uint64_t generated_total = 0;
  std::uint64_t deleted_total = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t deferred_end = 0;
  core::CappedWaitState waits;  ///< exact measured-window wait state
  std::uint64_t wait_p50 = 0;   ///< dyadic upper bounds (WaitRecorder)
  std::uint64_t wait_p99 = 0;
};

/// The engine configuration a scenario runs: n, c, arrivals, pool
/// limit, backpressure, backoff and control. Execution hints (kernel,
/// shards) stay at their defaults for the caller to set.
[[nodiscard]] core::CappedConfig capped_config(const Scenario& scn);

/// Fills the identity, lifetime, measured-window and wait fields of the
/// artifact from (scenario, seed, progress, totals). Fault, control and
/// audit fields stay with the caller; expectation checks are appended
/// by evaluate_expectations.
void fill_artifact(artifact::ResultArtifact& artifact, const Scenario& scn,
                   const std::string& digest, std::uint64_t seed,
                   const Progress& progress, const RunTotals& totals);

/// Evaluates the scenario's [expect] bounds against the artifact's
/// integer observations and appends the checks — exact-integer
/// comparisons, deterministic doubles (IEEE +−×÷ only).
void evaluate_expectations(const Scenario& scn,
                           artifact::ResultArtifact& artifact);

/// evaluate_expectations, then one "expect: <name>: bound …, observed …"
/// line in `failures` per failed check. Returns true when every bound
/// held.
[[nodiscard]] bool check_expectations(const Scenario& scn,
                                      artifact::ResultArtifact& artifact,
                                      std::vector<std::string>& failures);

}  // namespace iba::scenario
