#include "scenario/runner.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "core/capped.hpp"
#include "fault/auditor.hpp"
#include "fault/fault_plan.hpp"
#include "io/sealed.hpp"
#include "scenario/loop.hpp"
#include "sim/generation.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace iba::scenario {

/// The single-process owner and its extras (fault plan, auditor, time
/// series, flight recorder) around run_loop. It continues the generation
/// committed under options.resume, else starts fresh.
RunOutcome run_scenario(const Scenario& scn, const RunOptions& options) {
  const std::uint32_t n = scn.n;
  const core::RoundKernel kernel = options.kernel.value_or(scn.kernel);
  const std::uint32_t shards =
      options.shards.value_or(kernel == core::RoundKernel::kBinMajor
                                  ? scn.shards
                                  : std::uint32_t{1});
  IBA_EXPECT(kernel == core::RoundKernel::kBinMajor || shards == 1,
             "run_scenario: the scalar kernel cannot shard");
  const RunPlan plan =
      plan_run(scn, options.seed, !options.checkpoint_out.empty(),
               options.checkpoint_every, options.stop_after);

  // -- recording ---------------------------------------------------------
  // Active when the scenario asks for it or any recording output is
  // requested.
  const bool recording =
      scn.record.timeseries || !options.timeseries_out.empty() ||
      !options.flight_recorder.empty() || !options.debug_trigger.empty();
  telemetry::TriggerKind debug_kind = telemetry::TriggerKind::kManual;
  IBA_EXPECT(
      options.debug_trigger.empty() ||
          telemetry::trigger_from_name(options.debug_trigger, debug_kind),
      "run_scenario: --debug-trigger expects auditor-violation | "
      "expectation-failure | shed-spike | resume-mismatch | manual, got '" +
          options.debug_trigger + "'");
  std::optional<telemetry::TimeSeries> series;
  std::optional<telemetry::FlightRecorder> recorder;
  if (recording) {
    telemetry::TimeSeriesConfig ts_config;
    ts_config.cadence = scn.record.cadence;
    series.emplace(ts_config);
    telemetry::FlightRecorderConfig fr_config;
    fr_config.window = scn.record.window;
    recorder.emplace(fr_config);
    recorder->attach_time_series(&*series);
    recorder->set_context(scn.name, plan.digest, plan.seed, n);
  }

  std::unique_ptr<core::Capped> process;
  std::unique_ptr<fault::FaultPlan> faults;
  Progress progress{.digest = plan.digest, .seed = plan.seed};

  const std::uint32_t plan_ceiling =
      scn.control.enabled() ? scn.control.c_max : scn.capacity;

  sim::Generations generations(options.checkpoint_out);
  if (!options.resume.empty()) {
    auto [manifest, loaded] = sim::load_generation(options.resume, 0);
    const std::uint64_t round = manifest.round;
    progress = load_progress(sim::progress_path(options.resume, round));
    if (recording && !options.flight_recorder.empty() &&
        (progress.digest != plan.digest || progress.seed != plan.seed)) {
      // A broken resume is exactly what the black box is for: dump the
      // identity mismatch before the contract check aborts the run. This
      // bundle describes the failed stitch, so it is the one deliberate
      // exception to the bytes-identical-across-resume contract.
      recorder->trigger(telemetry::TriggerKind::kResumeMismatch, round,
                        "expected digest " + plan.digest + " seed " +
                            std::to_string(plan.seed) +
                            ", checkpoint has digest " + progress.digest +
                            " seed " + std::to_string(progress.seed) +
                            " round " + std::to_string(progress.rounds_done));
      recorder->write_bundle(options.flight_recorder);
    }
    check_resume(plan, progress);
    generations.resume(options.resume, manifest);
    // Execution hints are free to change on resume — overwrite them in
    // the restored config before the process spins up its thread pool.
    loaded.snapshot.config.kernel = kernel;
    loaded.snapshot.config.shards = shards;
    process = std::make_unique<core::Capped>(loaded.snapshot);
    if (loaded.has_fault_state) {
      faults = std::make_unique<fault::FaultPlan>(
          fault::parse_schedule(loaded.fault_schedule), n, plan_ceiling,
          loaded.fault_seed);
      faults->restore(loaded.fault_state);
    }
    if (recording) {
      load_record(*series, *recorder, sim::record_path(options.resume, round));
    }
  } else {
    core::CappedConfig config = capped_config(scn);
    config.kernel = kernel;
    config.shards = shards;
    process = std::make_unique<core::Capped>(config, core::Engine(plan.seed));
    if (!scn.fault_schedule.empty()) {
      faults = std::make_unique<fault::FaultPlan>(
          fault::parse_schedule(scn.fault_schedule), n, plan_ceiling,
          scn.fault_seed);
    }
  }
  if (faults != nullptr) process->set_fault_plan(faults.get());
  const std::unique_ptr<core::BinChoiceSampler> sampler =
      scn.arrival.make_sampler(n);
  if (sampler != nullptr) process->set_bin_sampler(sampler.get());
  if (recording) process->set_time_series(&*series);

  std::optional<fault::InvariantAuditor> auditor;
  if (scn.expect.audit) auditor.emplace(scn.expect.audit_every);

  // Poll baselines for the flight recorder: decisions and fault counters
  // are cumulative (and survive a resume via the process/plan state), so
  // per-round deltas against these pick up exactly the new activity.
  std::uint64_t seen_changes = 0;
  std::uint64_t seen_crashes = 0;
  std::uint64_t seen_repairs = 0;
  std::uint64_t seen_violations = 0;
  if (recording) {
    if (const control::Controller* ctl = process->controller()) {
      seen_changes = ctl->changes_total();
    }
    if (faults != nullptr) {
      seen_crashes = faults->crashes_total();
      seen_repairs = faults->repairs_total();
    }
  }

  // Fires a trigger; on the latching call stamps the engine fingerprint
  // (CRC of the master engine state — identical across kernels by the
  // decide-before-draw discipline) and writes the bundle.
  const auto fire = [&](telemetry::TriggerKind kind, std::uint64_t round,
                        const std::string& detail) {
    if (!recording) return;
    if (!recorder->triggered()) {
      std::ostringstream words;
      for (const std::uint64_t word : process->engine_state()) {
        words << word << ' ';
      }
      recorder->set_engine_fingerprint(
          common::crc32_hex(common::crc32(words.str())));
    }
    if (recorder->trigger(kind, round, detail) &&
        !options.flight_recorder.empty()) {
      recorder->write_bundle(options.flight_recorder);
    }
  };

  LoopHooks hooks;
  // The checkpoint and its sidecars, then the manifest that commits them
  // (sim/generation.hpp).
  hooks.save = [&](const Progress& progress_now) {
    const std::string& base = options.checkpoint_out;
    const std::uint64_t round = progress_now.rounds_done;
    sim::Checkpoint ckpt;
    ckpt.snapshot = process->snapshot();
    if (faults != nullptr) {
      ckpt.has_fault_state = true;
      ckpt.fault_schedule = fault::to_string(faults->schedule());
      ckpt.fault_seed = faults->seed();
      ckpt.fault_state = faults->state();
    }
    sim::Manifest manifest{round, n, /*workers=*/0, plan.digest, plan.seed};
    manifest.coord_crc =
        sim::save_checkpoint(ckpt, sim::coord_path(base, round));
    Progress saved = progress_now;
    if (auditor.has_value()) {
      saved.audit_rounds += auditor->rounds_audited();
      saved.audit_violations += auditor->violation_count();
    }
    manifest.progress_crc =
        save_progress(saved, sim::progress_path(base, round));
    if (recording) {
      manifest.record_crc =
          save_record(*series, *recorder, sim::record_path(base, round));
    }
    generations.commit(std::move(manifest));
  };

  hooks.observe = [&](std::uint64_t round, const core::RoundMetrics& m) {
    if (auditor.has_value()) auditor->observe(*process, m);
    if (!recording) return;
    if (const control::Controller* ctl = process->controller();
        ctl != nullptr && ctl->changes_total() > seen_changes) {
      seen_changes = ctl->changes_total();
      if (!ctl->decisions().empty()) {
        const control::DecisionRecord& d = ctl->decisions().back();
        telemetry::RecordedDecision rec;
        rec.round = d.round;
        rec.old_capacity = d.old_capacity;
        rec.new_capacity = d.new_capacity;
        rec.old_pool_limit = d.old_pool_limit;
        rec.new_pool_limit = d.new_pool_limit;
        rec.lambda_hat_micro =
            static_cast<std::uint64_t>(d.lambda_hat * 1e6 + 0.5);
        recorder->note_decision(rec);
      }
    }
    if (faults != nullptr) {
      if (faults->crashes_total() > seen_crashes) {
        recorder->note_event(
            round, "fault",
            "crashes +" +
                std::to_string(faults->crashes_total() - seen_crashes));
        seen_crashes = faults->crashes_total();
      }
      if (faults->repairs_total() > seen_repairs) {
        recorder->note_event(
            round, "fault",
            "repairs +" +
                std::to_string(faults->repairs_total() - seen_repairs));
        seen_repairs = faults->repairs_total();
      }
    }
    if (auditor.has_value() && auditor->violation_count() > seen_violations) {
      seen_violations = auditor->violation_count();
      std::string detail = "invariant violation";
      if (!auditor->violations().empty()) {
        const auto& v = auditor->violations().back();
        detail = v.invariant + ": " + v.detail;
      }
      recorder->note_event(round, "audit-violation", detail);
      fire(telemetry::TriggerKind::kAuditorViolation, round, detail);
    }
    if (scn.record.shed_spike > 0 && m.shed > scn.record.shed_spike) {
      fire(telemetry::TriggerKind::kShedSpike, round,
           "shed " + std::to_string(m.shed) + " exceeds bound " +
               std::to_string(scn.record.shed_spike));
    }
  };

  hooks.finish = [&](RunOutcome& outcome, const Progress& progress_now) {
    artifact::ResultArtifact& result = outcome.artifact;
    if (faults != nullptr) {
      result.has_faults = true;
      result.crashes = faults->crashes_total();
      result.repairs = faults->repairs_total();
      result.straggler_skips = faults->straggler_skips_total();
    }
    if (!auditor.has_value()) return;
    result.audited = true;
    result.audit_rounds = progress_now.audit_rounds + auditor->rounds_audited();
    result.audit_violations =
        progress_now.audit_violations + auditor->violation_count();
    outcome.audit_ok = result.audit_violations == 0;
    if (outcome.audit_ok) return;
    for (const auto& violation : auditor->violations()) {
      outcome.failures.push_back("audit: round " +
                                 std::to_string(violation.round) + ": " +
                                 violation.invariant + ": " + violation.detail);
    }
    if (auditor->violations().empty()) {
      outcome.failures.push_back(
          "audit: violations recorded in an earlier (checkpointed) segment");
    }
  };

  hooks.conclude = [&](RunOutcome& outcome) {
    if (!recording) return;
    if (!outcome.expectations_ok) {
      fire(telemetry::TriggerKind::kExpectationFailure, plan.total_rounds,
           outcome.failures.empty() ? std::string("expectation failed")
                                    : outcome.failures.front());
    }
    if (!options.debug_trigger.empty()) {
      fire(debug_kind, plan.total_rounds,
           "debug trigger '" + options.debug_trigger + "'");
    }
    if (!options.timeseries_out.empty()) {
      io::sealed::commit(options.timeseries_out, series->render_text(),
                         "scenario timeseries");
    }
  };

  return run_loop(scn, plan, *process, progress, hooks);
}

}  // namespace iba::scenario
