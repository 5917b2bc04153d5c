// The scenario loop, once for both owners of a CAPPED run's bins:
// core::Capped (scenario::run_scenario) and dist::Coordinator
// (dist::run_distributed), driven through step(), set_lambda_n(),
// reset_wait_stats() and pool_side(). A front end's own work (its save,
// fault plan, auditor, recorder) comes as LoopHooks; the loop never asks
// which owner it drives, so the two modes differ only in who holds the
// bins.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/metrics.hpp"
#include "core/pool_side.hpp"
#include "scenario/progress.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace iba::scenario {

/// A run's identity and cadence.
struct RunPlan {
  std::string digest;                  ///< Scenario::digest()
  std::uint64_t seed = 0;              ///< effective seed
  std::uint64_t total_rounds = 0;      ///< burn-in included
  bool checkpointing = false;          ///< the run has a save target
  std::uint64_t checkpoint_every = 0;  ///< 0 = no cadence checkpoints
  std::uint64_t stop_after = 0;        ///< 0 = run to the end
};

/// Resolves `seed` and the cadence (0 adopts the scenario's). Throws
/// ContractViolation when a cadence or stop_after has no save target, or
/// stop_after is not before the end.
[[nodiscard]] RunPlan plan_run(const Scenario& scn,
                               std::optional<std::uint64_t> seed,
                               bool checkpointing,
                               std::uint64_t checkpoint_every,
                               std::uint64_t stop_after);

/// Throws ContractViolation unless `progress` belongs to the plan's
/// scenario and seed and has rounds left to run.
void check_resume(const RunPlan& plan, const Progress& progress);

/// A front end's part of the loop. `save` (the owner and `progress`, at
/// progress.rounds_done) is required with a save target; the rest may be
/// empty.
struct LoopHooks {
  std::function<void(const Progress& progress)> save;
  /// After step(), before the round joins the measured window.
  std::function<void(std::uint64_t round, const core::RoundMetrics& m)>
      observe;
  /// After the round's cadence checkpoint, before a stop-after one.
  std::function<void(std::uint64_t round)> after_round;
  /// On completion: before the [expect] checks (own fields and failure
  /// lines), and after them, before the final save.
  std::function<void(RunOutcome& outcome, const Progress& progress)> finish;
  std::function<void(RunOutcome& outcome)> conclude;
};

/// A completed run's artifact: the shared fields, hooks.finish, the
/// [expect] checks (an "expect: …" line per failure), hooks.conclude.
void complete_outcome(const Scenario& scn, const RunPlan& plan,
                      const core::PoolSide& side, const Progress& progress,
                      const LoopHooks& hooks, RunOutcome& outcome);

/// The tail of the scenario_run and dist_run CLIs, logging as "[tag]": the
/// stopped-after line, the artifact written (or printed when there is no
/// golden either), the FAIL lines and the golden compare, whose mismatch
/// line ends with `golden_hint`. Returns the exit code, 0 or 3.
[[nodiscard]] int report_outcome(const RunOutcome& outcome, const char* tag,
                                 const std::string& checkpoint,
                                 const std::string& out_path,
                                 const std::string& golden_path,
                                 const std::string& golden_hint);

/// Runs the rounds after progress.rounds_done on `owner`. The burn-in
/// wait reset precedes its round's checkpoint, so the saved waits are the
/// cleared ones and a resume does not reset twice. A round saves at most
/// once, so every save commits a new generation.
template <class Owner>
RunOutcome run_loop(const Scenario& scn, const RunPlan& plan, Owner& owner,
                    Progress& progress, const LoopHooks& hooks) {
  RunOutcome outcome;
  for (std::uint64_t round = progress.rounds_done + 1;
       round <= plan.total_rounds; ++round) {
    if (scn.arrival.time_varying()) {
      owner.set_lambda_n(scn.arrival.rate_at(round, scn.n));
    }
    const core::RoundMetrics m = owner.step();
    if (hooks.observe) hooks.observe(round, m);
    if (round > scn.burn_in) accumulate_progress(progress, m);
    progress.rounds_done = round;
    if (round == scn.burn_in) owner.reset_wait_stats();
    if (plan.checkpoint_every > 0 && round % plan.checkpoint_every == 0 &&
        round != plan.total_rounds && round != plan.stop_after) {
      hooks.save(progress);
    }
    if (hooks.after_round) hooks.after_round(round);
    if (round == plan.stop_after) {
      hooks.save(progress);
      outcome.complete = false;
      outcome.rounds_done = round;
      return outcome;
    }
  }
  complete_outcome(scn, plan, owner.pool_side(), progress, hooks, outcome);
  if (plan.checkpointing) hooks.save(progress);
  return outcome;
}

}  // namespace iba::scenario
