#include "scenario/runner.hpp"

#include <memory>
#include <optional>
#include <sstream>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "core/capped.hpp"
#include "fault/auditor.hpp"
#include "fault/fault_plan.hpp"
#include "io/sealed.hpp"
#include "scenario/progress.hpp"
#include "sim/checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace iba::scenario {

namespace {

/// The round loop of both entry points. It continues `given` when set
/// (continue_run), else options.resume with its sidecars, else starts
/// fresh.
RunOutcome run(const Scenario& scn, const RunOptions& options,
               sim::Checkpoint* given) {
  const std::uint32_t n = scn.n;
  const core::RoundKernel kernel = options.kernel.value_or(scn.kernel);
  const std::uint32_t shards =
      options.shards.value_or(kernel == core::RoundKernel::kBinMajor
                                  ? scn.shards
                                  : std::uint32_t{1});
  IBA_EXPECT(kernel == core::RoundKernel::kBinMajor || shards == 1,
             "run_scenario: the scalar kernel cannot shard");
  IBA_EXPECT(options.stop_after == 0 || !options.checkpoint_out.empty(),
             "run_scenario: stop_after requires checkpoint_out");
  const std::uint64_t seed = options.seed.value_or(scn.seed);
  const std::uint64_t total_rounds = scn.burn_in + scn.rounds;
  IBA_EXPECT(options.stop_after == 0 || options.stop_after < total_rounds,
             "run_scenario: stop_after must precede the scenario's end");
  const std::uint64_t checkpoint_every = !options.checkpoint_out.empty()
                                             ? (options.checkpoint_every > 0
                                                    ? options.checkpoint_every
                                                    : scn.checkpoint_every)
                                             : 0;

  const std::string digest = scn.digest();

  // -- recording ---------------------------------------------------------
  // Active when the scenario asks for it or any recording output is
  // requested. Inert (and the flags with it) with -DIBA_TELEMETRY=OFF.
  const bool recording =
      telemetry::TimeSeries::kEnabled &&
      (scn.record.timeseries || !options.timeseries_out.empty() ||
       !options.flight_recorder.empty() || !options.debug_trigger.empty());
  telemetry::TriggerKind debug_kind = telemetry::TriggerKind::kManual;
  IBA_EXPECT(
      options.debug_trigger.empty() ||
          telemetry::trigger_from_name(options.debug_trigger, debug_kind),
      "run_scenario: unknown debug trigger '" + options.debug_trigger + "'");
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
    recorder->set_context(scn.name, digest, seed, n);
  }

  std::unique_ptr<core::Capped> process;
  std::unique_ptr<fault::FaultPlan> plan;
  Progress progress;

  const std::uint32_t plan_ceiling =
      scn.control.enabled() ? scn.control.c_max : scn.capacity;

  sim::Checkpoint loaded;
  if (!options.resume.empty()) {
    loaded = sim::load_checkpoint_full(options.resume);
    given = &loaded;
    progress = load_progress(options.resume + ".progress");
    if (recording && !options.flight_recorder.empty() &&
        (progress.digest != digest || progress.seed != seed ||
         loaded.snapshot.round != progress.rounds_done)) {
      // A broken resume is exactly what the black box is for: dump the
      // identity mismatch before the contract check aborts the run. This
      // bundle describes the failed stitch, so it is the one deliberate
      // exception to the bytes-identical-across-resume contract.
      recorder->trigger(telemetry::TriggerKind::kResumeMismatch,
                        loaded.snapshot.round,
                        "expected digest " + digest + " seed " +
                            std::to_string(seed) + ", checkpoint has digest " +
                            progress.digest + " seed " +
                            std::to_string(progress.seed) + " round " +
                            std::to_string(progress.rounds_done));
      recorder->write_bundle(options.flight_recorder);
    }
    IBA_EXPECT(progress.digest == digest,
               "run_scenario: checkpoint belongs to a different scenario "
               "(digest mismatch)");
    IBA_EXPECT(progress.seed == seed,
               "run_scenario: checkpoint belongs to a different seed");
    IBA_EXPECT(loaded.snapshot.round == progress.rounds_done,
               "run_scenario: checkpoint and progress sidecar disagree");
  } else if (given != nullptr) {
    IBA_EXPECT(given->snapshot.config.n == n,
               "continue_run: checkpoint and scenario disagree on n");
    progress.digest = digest;
    progress.seed = seed;
    progress.rounds_done = given->snapshot.round;
  }
  if (given != nullptr) {
    IBA_EXPECT(progress.rounds_done < total_rounds,
               "run_scenario: checkpoint is already past the scenario's end");
    // Execution hints are free to change on resume — overwrite them in
    // the restored config before the process spins up its thread pool.
    given->snapshot.config.kernel = kernel;
    given->snapshot.config.shards = shards;
    process = std::make_unique<core::Capped>(given->snapshot);
    if (given->has_fault_state) {
      plan = std::make_unique<fault::FaultPlan>(
          fault::parse_schedule(given->fault_schedule), n, plan_ceiling,
          given->fault_seed);
      plan->restore(given->fault_state);
    }
    if (recording && !options.resume.empty()) {
      load_record(*series, *recorder, options.resume + ".record");
    }
  } else {
    core::CappedConfig config = capped_config(scn);
    config.kernel = kernel;
    config.shards = shards;
    process = std::make_unique<core::Capped>(config, core::Engine(seed));
    if (!scn.fault_schedule.empty()) {
      plan = std::make_unique<fault::FaultPlan>(
          fault::parse_schedule(scn.fault_schedule), n, plan_ceiling,
          scn.fault_seed);
    }
    progress.digest = digest;
    progress.seed = seed;
  }
  if (plan != nullptr) process->set_fault_plan(plan.get());
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
    if (plan != nullptr) {
      seen_crashes = plan->crashes_total();
      seen_repairs = plan->repairs_total();
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

  const auto save_state = [&] {
    sim::Checkpoint ckpt;
    ckpt.snapshot = process->snapshot();
    if (plan != nullptr) {
      ckpt.has_fault_state = true;
      ckpt.fault_schedule = fault::to_string(plan->schedule());
      ckpt.fault_seed = plan->seed();
      ckpt.fault_state = plan->state();
    }
    sim::save_checkpoint(ckpt, options.checkpoint_out);
    Progress saved = progress;
    if (auditor.has_value()) {
      saved.audit_rounds += auditor->rounds_audited();
      saved.audit_violations += auditor->violation_count();
    }
    save_progress(saved, options.checkpoint_out + ".progress");
    if (recording) {
      save_record(*series, *recorder, options.checkpoint_out + ".record");
    }
  };

  RunOutcome outcome;
  for (std::uint64_t round = progress.rounds_done + 1; round <= total_rounds;
       ++round) {
    if (scn.arrival.time_varying()) {
      process->set_lambda_n(scn.arrival.rate_at(round, n));
    }
    const core::RoundMetrics m = process->step();
    if (auditor.has_value()) auditor->observe(*process, m);
    if (recording) {
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
      if (plan != nullptr) {
        if (plan->crashes_total() > seen_crashes) {
          recorder->note_event(
              round, "fault",
              "crashes +" +
                  std::to_string(plan->crashes_total() - seen_crashes));
          seen_crashes = plan->crashes_total();
        }
        if (plan->repairs_total() > seen_repairs) {
          recorder->note_event(
              round, "fault",
              "repairs +" +
                  std::to_string(plan->repairs_total() - seen_repairs));
          seen_repairs = plan->repairs_total();
        }
      }
      if (auditor.has_value() &&
          auditor->violation_count() > seen_violations) {
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
    }
    if (round > scn.burn_in) accumulate_progress(progress, m);
    progress.rounds_done = round;
    // Burn-in boundary: clear the cumulative wait statistics so the
    // measured window starts clean. Ordered before any checkpoint at
    // this round — the snapshot then carries the cleared state and a
    // resume does not double-reset.
    if (round == scn.burn_in) process->reset_wait_stats();
    if (checkpoint_every > 0 && round % checkpoint_every == 0 &&
        round != total_rounds) {
      save_state();
    }
    if (options.stop_after != 0 && round == options.stop_after) {
      save_state();
      outcome.complete = false;
      outcome.rounds_done = round;
      return outcome;
    }
  }
  outcome.rounds_done = total_rounds;

  // -- assemble the artifact -------------------------------------------
  artifact::ResultArtifact& result = outcome.artifact;
  RunTotals totals;
  totals.generated_total = process->generated_total();
  totals.deleted_total = process->deleted_total();
  totals.shed_total = process->shed_total();
  totals.deferred_end = process->deferred_total();
  totals.waits = core::wait_state(process->waits());
  totals.wait_p50 = process->waits().quantile_upper_bound(0.5);
  totals.wait_p99 = process->waits().quantile_upper_bound(0.99);
  fill_artifact(result, scn, digest, seed, progress, totals);

  if (plan != nullptr) {
    result.has_faults = true;
    result.crashes = plan->crashes_total();
    result.repairs = plan->repairs_total();
    result.straggler_skips = plan->straggler_skips_total();
  }

  if (scn.control.enabled()) {
    result.has_control = true;
    result.capacity_final = process->capacity();
    if (const control::Controller* ctl = process->controller()) {
      result.control_changes = ctl->changes_total();
      result.control_grows = ctl->grows_total();
      result.control_shrinks = ctl->shrinks_total();
    }
  }

  if (auditor.has_value()) {
    result.audited = true;
    result.audit_rounds = progress.audit_rounds + auditor->rounds_audited();
    result.audit_violations =
        progress.audit_violations + auditor->violation_count();
    outcome.audit_ok = result.audit_violations == 0;
    if (!outcome.audit_ok) {
      for (const auto& violation : auditor->violations()) {
        outcome.failures.push_back(
            "audit: round " + std::to_string(violation.round) + ": " +
            violation.invariant + ": " + violation.detail);
      }
      if (auditor->violations().empty()) {
        outcome.failures.push_back(
            "audit: violations recorded in an earlier (checkpointed) "
            "segment");
      }
    }
  }

  outcome.expectations_ok =
      check_expectations(scn, result, outcome.failures);

  if (recording) {
    if (!outcome.expectations_ok) {
      fire(telemetry::TriggerKind::kExpectationFailure, total_rounds,
           outcome.failures.empty() ? std::string("expectation failed")
                                    : outcome.failures.front());
    }
    if (!options.debug_trigger.empty()) {
      fire(debug_kind, total_rounds,
           "debug trigger '" + options.debug_trigger + "'");
    }
    if (!options.timeseries_out.empty()) {
      io::sealed::commit(options.timeseries_out, series->render_text(),
                         "scenario timeseries");
    }
  }

  if (!options.checkpoint_out.empty()) save_state();
  return outcome;
}

}  // namespace

RunOutcome run_scenario(const Scenario& scn, const RunOptions& options) {
  return run(scn, options, nullptr);
}

RunOutcome continue_run(const Scenario& scn, sim::Checkpoint checkpoint,
                        const RunOptions& options) {
  IBA_EXPECT(options.resume.empty(),
             "continue_run: the checkpoint is given; resume must be empty");
  return run(scn, options, &checkpoint);
}

}  // namespace iba::scenario
