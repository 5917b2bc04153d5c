#include "scenario/loop.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "control/controller.hpp"

namespace iba::scenario {

RunPlan plan_run(const Scenario& scn, std::optional<std::uint64_t> seed,
                 bool checkpointing, std::uint64_t checkpoint_every,
                 std::uint64_t stop_after) {
  const RunPlan plan{
      .digest = scn.digest(),
      .seed = seed.value_or(scn.seed),
      .total_rounds = scn.burn_in + scn.rounds,
      .checkpointing = checkpointing,
      .checkpoint_every = !checkpointing          ? 0
                          : checkpoint_every > 0 ? checkpoint_every
                                                 : scn.checkpoint_every,
      .stop_after = stop_after};
  IBA_EXPECT((checkpoint_every == 0 && stop_after == 0) || checkpointing,
             "scenario run: --checkpoint-every and --stop-after require "
             "--checkpoint-out");
  IBA_EXPECT(stop_after == 0 || stop_after < plan.total_rounds,
             "scenario run: stop_after must precede the scenario's end");
  return plan;
}

void check_resume(const RunPlan& plan, const Progress& progress) {
  IBA_EXPECT(progress.digest == plan.digest,
             "scenario run: checkpoint belongs to a different scenario "
             "(digest mismatch)");
  IBA_EXPECT(progress.seed == plan.seed,
             "scenario run: checkpoint belongs to a different seed");
  IBA_EXPECT(progress.rounds_done < plan.total_rounds,
             "scenario run: checkpoint is already past the scenario's end");
}

void complete_outcome(const Scenario& scn, const RunPlan& plan,
                      const core::PoolSide& side, const Progress& progress,
                      const LoopHooks& hooks, RunOutcome& outcome) {
  outcome.rounds_done = plan.total_rounds;
  const RunTotals totals{
      .generated_total = side.generated_total(),
      .deleted_total = side.deleted_total(),
      .shed_total = side.shed_total(),
      .deferred_end = side.deferred_total(),
      .waits = core::wait_state(side.waits()),
      .wait_p50 = side.waits().quantile_upper_bound(0.5),
      .wait_p99 = side.waits().quantile_upper_bound(0.99)};
  artifact::ResultArtifact& result = outcome.artifact;
  fill_artifact(result, scn, plan.digest, plan.seed, progress, totals);
  if (const control::Controller* ctl = side.controller()) {
    result.has_control = true;
    result.capacity_final = side.config().capacity;
    result.control_changes = ctl->changes_total();
    result.control_grows = ctl->grows_total();
    result.control_shrinks = ctl->shrinks_total();
  }

  if (hooks.finish) hooks.finish(outcome, progress);
  evaluate_expectations(scn, result);
  for (const artifact::ExpectationCheck& check : result.checks) {
    if (check.pass) continue;
    outcome.expectations_ok = false;
    outcome.failures.push_back("expect: " + check.name + ": bound " +
                               check.bound + ", observed " + check.observed);
  }
  if (hooks.conclude) hooks.conclude(outcome);
}

int report_outcome(const RunOutcome& outcome, const char* tag,
                   const std::string& checkpoint, const std::string& out_path,
                   const std::string& golden_path,
                   const std::string& golden_hint) {
  if (!outcome.complete) {
    std::fprintf(stderr, "[%s] stopped after %llu rounds, checkpoint at %s\n",
                 tag, static_cast<unsigned long long>(outcome.rounds_done),
                 checkpoint.c_str());
    return 0;
  }

  const std::string text = artifact::render_artifact(outcome.artifact);
  if (!out_path.empty()) {
    artifact::write_artifact(outcome.artifact, out_path);
    std::fprintf(stderr, "[%s] wrote %s (%zu bytes)\n", tag, out_path.c_str(),
                 text.size());
  } else if (golden_path.empty()) {
    std::fputs(text.c_str(), stdout);
  }

  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "[%s] FAIL %s\n", tag, failure.c_str());
  }

  if (!golden_path.empty()) {
    const std::string golden = artifact::read_artifact_text(golden_path);
    if (golden != text) {
      std::fprintf(stderr,
                   "[%s] FAIL golden mismatch: %s differs from this run "
                   "(%zu vs %zu bytes)%s\n",
                   tag, golden_path.c_str(), golden.size(), text.size(),
                   golden_hint.c_str());
      return 3;
    }
    std::fprintf(stderr, "[%s] golden match: %s\n", tag, golden_path.c_str());
  }

  return outcome.ok() ? 0 : 3;
}

}  // namespace iba::scenario
