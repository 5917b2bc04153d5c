#include "dist/runner.hpp"

#include <unistd.h>

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "dist/coordinator.hpp"
#include "scenario/loop.hpp"
#include "sim/generation.hpp"

namespace iba::dist {

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
  IBA_EXPECT(!options.resume || !options.checkpoint_base.empty(),
             "run_distributed: --resume requires --checkpoint-out");
  const std::string& base = options.checkpoint_base;
  const scenario::RunPlan plan =
      scenario::plan_run(scn, options.seed, !base.empty(),
                         options.checkpoint_every, options.stop_after);

  const CoordinatorOptions copts{.timeout_ms = options.timeout_ms};

  std::unique_ptr<Coordinator> coordinator;
  sim::Generations generations(base);
  scenario::Progress progress{.digest = plan.digest, .seed = plan.seed};
  if (options.resume) {
    const auto [manifest, checkpoint] = sim::load_generation(
        base, static_cast<std::uint32_t>(worker_fds.size()));
    progress =
        scenario::load_progress(sim::progress_path(base, manifest.round));
    scenario::check_resume(plan, progress);
    generations.resume(base, manifest);
    coordinator = std::make_unique<Coordinator>(
        checkpoint.snapshot, worker_fds, base, manifest.shard_crcs, copts);
  } else {
    coordinator = std::make_unique<Coordinator>(
        scenario::capped_config(scn), core::Engine(plan.seed), worker_fds,
        copts);
  }

  const std::unique_ptr<core::BinChoiceSampler> sampler =
      scn.arrival.make_sampler(scn.n);
  if (sampler != nullptr) coordinator->set_bin_sampler(sampler.get());

  scenario::LoopHooks hooks;
  // The shards and the coordinator file, then the progress sidecar, then
  // the manifest that commits all of them (sim/generation.hpp).
  hooks.save = [&](const scenario::Progress& progress_now) {
    sim::Manifest manifest = coordinator->save_checkpoint(
        base, plan.digest, plan.seed, generations.collect_round());
    manifest.progress_crc = scenario::save_progress(
        progress_now, sim::progress_path(base, manifest.round));
    generations.commit(std::move(manifest));
  };
  hooks.after_round = [&options](std::uint64_t round) {
    if (options.on_round) options.on_round(round);
    if (options.throttle_us > 0) {
      ::usleep(static_cast<useconds_t>(options.throttle_us));
    }
  };
  scenario::RunOutcome outcome =
      scenario::run_loop(scn, plan, *coordinator, progress, hooks);
  coordinator->shutdown();
  return outcome;
}

}  // namespace iba::dist
