// Scenario runner — executes a parsed Scenario end to end and produces
// the result artifact (docs/SCENARIOS.md):
//
//   build CappedConfig → attach fault plan / Zipf sampler / auditor →
//   burn-in → measured window with integer accumulators → evaluate
//   [expect] bounds → artifact::ResultArtifact.
//
// The rounds run in scenario::run_loop (scenario/loop.hpp), with
// core::Capped as the owner and the fault plan, auditor, time series and
// flight recorder as hooks.
//
// Determinism contract: the artifact bytes depend only on (scenario
// semantics, seed). Kernel, shard count, checkpoint cadence and
// kill-and-resume leave them unchanged:
//  * kernels/shards — byte-identical by the process's decide-before-draw
//    discipline (every random draw comes from the master engine in a
//    fixed order, including through a BinChoiceSampler);
//  * resume — each save is a checkpoint generation (sim/generation.hpp):
//    the process checkpoint (format v3, incl. fault/control state and
//    cumulative waits) carries the trajectory, its `.progress` sidecar
//    the runner's own measured-window accumulators, and a manifest
//    committed last binds both by CRC, so a killed run — even one killed
//    mid-save — finishes with the exact accumulator values of the
//    uninterrupted one;
//  * accumulators are exact u64 sums/extrema — no floating-point
//    round-off to reorder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/policies.hpp"
#include "scenario/scenario.hpp"

namespace iba::scenario {

/// Execution knobs of one run — everything here is free to vary without
/// changing the artifact bytes (that is what the determinism tests
/// assert). Seed overrides *do* change the bytes, deliberately.
struct RunOptions {
  std::optional<core::RoundKernel> kernel;  ///< override [system] kernel
  std::optional<std::uint32_t> shards;      ///< override [system] shards
  std::optional<std::uint64_t> seed;        ///< override [run] seed

  /// Checkpoint generation base path ("" = no checkpoints).
  std::string checkpoint_out;
  /// Checkpoint cadence in rounds; 0 adopts the scenario's
  /// checkpoint-every. Only active with a checkpoint_out path.
  std::uint64_t checkpoint_every = 0;
  /// Resume the generation committed under this base ("" = fresh run).
  std::string resume;
  /// Stop (checkpoint and return, complete = false) once this many
  /// total rounds — burn-in included — have run. 0 = run to the end.
  /// Requires checkpoint_out. For kill-and-resume testing.
  std::uint64_t stop_after = 0;

  /// Write the full multi-tier time series here once the run completes
  /// ("" = off). Forces recording on even without a [record] section.
  /// Content is a pure function of (scenario semantics, seed) — the
  /// determinism contract above extends to these bytes.
  std::string timeseries_out;
  /// Arm the flight recorder; the postmortem bundle lands here when a
  /// trigger fires ("" = off). Bundle bytes obey the same determinism
  /// contract (the resume-mismatch bundle, describing a broken resume,
  /// is the one deliberate exception).
  std::string flight_recorder;
  /// Fire this trigger (a telemetry::trigger_name) after the run
  /// completes, for exercising the bundle path in tests and CI. Ignored
  /// when a real trigger already fired. "" = off.
  std::string debug_trigger;
};

/// What one run produced. `artifact` is only meaningful when `complete`.
struct RunOutcome {
  artifact::ResultArtifact artifact;
  bool complete = true;         ///< false when stop_after cut the run
  bool audit_ok = true;         ///< auditor found no violations
  bool expectations_ok = true;  ///< every [expect] bound held
  std::uint64_t rounds_done = 0;
  std::vector<std::string> failures;  ///< human-readable violation lines

  /// The exit-code contract for CLI front-ends: 3 on audit or
  /// expectation violations, 0 otherwise.
  [[nodiscard]] bool ok() const noexcept {
    return audit_ok && expectations_ok;
  }
};

/// Runs `scenario` under `options`. Throws common::ContractViolation on
/// inconsistent options (stop_after without checkpoint_out, scalar
/// kernel with shards, resume mismatch) and std::runtime_error on IO
/// failures; fault schedules that do not fit the geometry surface as
/// fault::ScheduleError.
[[nodiscard]] RunOutcome run_scenario(const Scenario& scenario,
                                      const RunOptions& options = {});

}  // namespace iba::scenario
