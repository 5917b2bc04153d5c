#include "dist/runner.hpp"

#include <unistd.h>

#include <memory>

#include "common/assert.hpp"
#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "scenario/progress.hpp"
#include "sim/checkpoint.hpp"

namespace iba::dist {

namespace {

std::string progress_path(const std::string& base, std::uint64_t round) {
  return coord_path(base, round) + ".progress";
}

}  // namespace

scenario::RunOutcome run_distributed(const scenario::Scenario& scn,
                                     const std::vector<int>& worker_fds,
                                     const DistRunOptions& options) {
  IBA_EXPECT(scn.fault_schedule.empty(),
             "run_distributed: fault schedules are not supported "
             "distributed (worker-side coins would fork the engine "
             "stream)");
  IBA_EXPECT(!scn.expect.audit,
             "run_distributed: the invariant auditor needs the full "
             "in-process state; run the audit single-process");
  IBA_EXPECT(options.stop_after == 0 || !options.checkpoint_base.empty(),
             "run_distributed: stop_after requires checkpoint_base");
  IBA_EXPECT(!options.resume || !options.checkpoint_base.empty(),
             "run_distributed: resume requires checkpoint_base");

  const std::uint64_t seed = options.seed.value_or(scn.seed);
  const std::uint64_t total_rounds = scn.burn_in + scn.rounds;
  IBA_EXPECT(options.stop_after == 0 || options.stop_after < total_rounds,
             "run_distributed: stop_after must precede the scenario's end");
  const std::uint64_t checkpoint_every =
      !options.checkpoint_base.empty()
          ? (options.checkpoint_every > 0 ? options.checkpoint_every
                                          : scn.checkpoint_every)
          : 0;
  const std::string digest = scn.digest();

  CoordinatorOptions copts;
  copts.timeout_ms = options.timeout_ms;

  std::unique_ptr<Coordinator> coordinator;
  scenario::Progress progress;

  if (options.resume) {
    const Manifest manifest =
        load_manifest(manifest_path(options.checkpoint_base));
    IBA_EXPECT(manifest.digest == digest,
               "run_distributed: checkpoint belongs to a different "
               "scenario (digest mismatch)");
    IBA_EXPECT(manifest.seed == seed,
               "run_distributed: checkpoint belongs to a different seed");
    IBA_EXPECT(manifest.n == scn.n,
               "run_distributed: checkpoint geometry mismatch (n)");
    IBA_EXPECT(manifest.workers == worker_fds.size(),
               "run_distributed: checkpoint was taken with " +
                   std::to_string(manifest.workers) + " workers");
    const core::CappedSnapshot snapshot = sim::load_checkpoint(
        coord_path(options.checkpoint_base, manifest.round));
    IBA_EXPECT(snapshot.round == manifest.round,
               "run_distributed: coordinator file and manifest disagree");
    progress = scenario::load_progress(
        progress_path(options.checkpoint_base, manifest.round));
    IBA_EXPECT(progress.digest == digest && progress.seed == seed,
               "run_distributed: progress sidecar identity mismatch");
    IBA_EXPECT(progress.rounds_done == manifest.round,
               "run_distributed: progress sidecar and manifest disagree");
    IBA_EXPECT(progress.rounds_done < total_rounds,
               "run_distributed: checkpoint is already past the "
               "scenario's end");
    coordinator = std::make_unique<Coordinator>(
        snapshot, worker_fds, options.checkpoint_base, manifest.shard_crcs,
        copts);
  } else {
    coordinator = std::make_unique<Coordinator>(
        scenario::capped_config(scn), core::Engine(seed), worker_fds, copts);
    progress.digest = digest;
    progress.seed = seed;
  }

  const std::unique_ptr<core::BinChoiceSampler> sampler =
      scn.arrival.make_sampler(scn.n);
  if (sampler != nullptr) coordinator->set_bin_sampler(sampler.get());

  // Progress is saved round-stamped inside the generation, BEFORE the
  // coordinator's manifest commit, so at every crash point the manifest
  // on disk references a complete generation including this sidecar.
  const auto save_state = [&] {
    scenario::save_progress(
        progress, progress_path(options.checkpoint_base, progress.rounds_done));
    coordinator->save_checkpoint(options.checkpoint_base, digest, seed);
  };

  scenario::RunOutcome outcome;
  for (std::uint64_t round = progress.rounds_done + 1; round <= total_rounds;
       ++round) {
    if (scn.arrival.time_varying()) {
      coordinator->set_lambda_n(scn.arrival.rate_at(round, scn.n));
    }
    const core::RoundMetrics m = coordinator->step();
    if (round > scn.burn_in) accumulate_progress(progress, m);
    progress.rounds_done = round;
    if (round == scn.burn_in) coordinator->reset_wait_stats();
    if (checkpoint_every > 0 && round % checkpoint_every == 0 &&
        round != total_rounds) {
      save_state();
    }
    if (options.on_round) options.on_round(round);
    if (options.throttle_us > 0) {
      ::usleep(static_cast<useconds_t>(options.throttle_us));
    }
    if (options.stop_after != 0 && round == options.stop_after) {
      save_state();
      coordinator->shutdown();
      outcome.complete = false;
      outcome.rounds_done = round;
      return outcome;
    }
  }
  outcome.rounds_done = total_rounds;

  // -- assemble the artifact (shared helpers ⇒ byte-identical) ----------
  scenario::RunTotals totals;
  totals.generated_total = coordinator->generated_total();
  totals.deleted_total = coordinator->deleted_total();
  totals.shed_total = coordinator->shed_total();
  totals.deferred_end = coordinator->deferred_total();
  totals.waits = coordinator->wait_state();
  totals.wait_p50 = coordinator->wait_quantile(0.5);
  totals.wait_p99 = coordinator->wait_quantile(0.99);
  artifact::ResultArtifact& result = outcome.artifact;
  scenario::fill_artifact(result, scn, digest, seed, progress, totals);

  if (scn.control.enabled()) {
    const control::ControllerState state = coordinator->controller()->state();
    result.has_control = true;
    result.capacity_final = coordinator->capacity();
    result.control_changes = state.changes;
    result.control_grows = state.grows;
    result.control_shrinks = state.shrinks;
  }

  outcome.expectations_ok =
      scenario::check_expectations(scn, result, outcome.failures);

  if (!options.checkpoint_base.empty()) save_state();
  coordinator->shutdown();
  return outcome;
}

}  // namespace iba::dist
