// scenario_run — execute a declarative scenario file and emit its
// canonical result artifact (docs/SCENARIOS.md).
//
//   $ ./scenario_run --scenario scenarios/steady_baseline.scn --out run.artifact
//   $ ./scenario_run --scenario s.scn --kernel scalar --out a2.artifact
//     # byte-identical to the bin-major run: cmp run.artifact a2.artifact
//   $ ./scenario_run --scenario s.scn --golden tests/goldens/s.artifact
//     # regression check: exit 3 on any byte difference
//   $ ./scenario_run --scenario s.scn --checkpoint-out s.ckpt --stop-after 400
//     # saves the generation s.ckpt.r400.coord{,.progress} and commits it
//     # in s.ckpt.manifest (sim/generation.hpp)
//   $ ./scenario_run --scenario s.scn --resume s.ckpt --out resumed.artifact
//     # resumed.artifact is byte-identical to the uninterrupted run
//
// Exit codes: 0 success, 1 runtime error, 2 usage error (bad flag,
// malformed scenario — the diagnostic names file:line, section and key),
// 3 expectation/audit/golden violation.
#include <cstdio>
#include <string>

#include "fault/schedule.hpp"
#include "io/cli.hpp"
#include "scenario/loop.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/generation.hpp"

namespace {

using namespace iba;

int run(const io::ArgParser& parser) {
  const std::string path = parser.get("scenario");
  if (path.empty()) {
    throw io::UsageError("scenario_run: --scenario is required");
  }
  const scenario::Scenario scn = scenario::load_scenario_file(path);

  scenario::RunOptions options;
  if (parser.provided("kernel")) {
    core::RoundKernel kernel{};
    if (!core::kernel_from_string(parser.get("kernel"), kernel)) {
      throw io::UsageError(
          "scenario_run: --kernel expects bin-major or scalar, got '" +
          parser.get("kernel") + "'");
    }
    options.kernel = kernel;
  }
  if (parser.provided("shards")) {
    options.shards =
        static_cast<std::uint32_t>(parser.get_uint_range("shards", 1, 256));
  }
  if (parser.provided("seed")) options.seed = parser.get_uint("seed");
  options.checkpoint_out = parser.get("checkpoint-out");
  options.checkpoint_every = parser.get_uint("checkpoint-every");
  options.resume = parser.get("resume");
  options.stop_after = parser.get_uint("stop-after");
  options.timeseries_out = parser.get("timeseries-out");
  options.flight_recorder = parser.get("flight-recorder");
  options.debug_trigger = parser.get("debug-trigger");

  const std::string out_path = parser.get("out");
  const std::string golden_path = parser.get("golden");
  const bool force = parser.get_bool("force");
  io::guard_overwrite(out_path, force, "--out");
  io::guard_overwrite(options.timeseries_out, force, "--timeseries-out");
  io::guard_overwrite(options.flight_recorder, force, "--flight-recorder");
  // A fresh run must not replace another run's committed generation; a
  // resume keeps saving under the base it resumed from.
  if (!options.checkpoint_out.empty() &&
      !sim::same_base(options.checkpoint_out, options.resume)) {
    io::guard_overwrite(sim::manifest_path(options.checkpoint_out), force,
                        "--checkpoint-out");
  }

  if (parser.get_bool("print-canonical")) {
    std::fputs(scn.canonical_text().c_str(), stdout);
    return 0;
  }

  std::fprintf(stderr,
               "[scenario] %s (digest %s): n=%u c=%u rounds=%llu+%llu\n",
               scn.name.c_str(), scn.digest().c_str(), scn.n, scn.capacity,
               static_cast<unsigned long long>(scn.burn_in),
               static_cast<unsigned long long>(scn.rounds));

  return scenario::report_outcome(
      scenario::run_scenario(scn, options), "scenario",
      options.checkpoint_out, out_path, golden_path,
      "; regenerate with scripts/update_goldens.sh if the change is "
      "intended");
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("scenario_run",
                       "run a declarative scenario file and emit its "
                       "canonical result artifact");
  parser.add_flag("scenario", "scenario file to run (required)", "");
  parser.add_flag("out",
                  "write the artifact here (default: print to stdout)", "");
  parser.add_flag("golden",
                  "compare the artifact against this golden file; any byte "
                  "difference exits 3",
                  "");
  parser.add_flag("kernel",
                  "override the scenario's kernel: bin-major | scalar "
                  "(artifact bytes are invariant in this)",
                  "");
  parser.add_flag("shards",
                  "override the scenario's shard count (artifact bytes are "
                  "invariant in this)",
                  "");
  parser.add_flag("seed", "override the scenario's seed", "");
  parser.add_flag("checkpoint-out",
                  "checkpoint base B (each save commits B.manifest)", "");
  parser.add_flag("checkpoint-every",
                  "checkpoint cadence in rounds (requires --checkpoint-out; "
                  "0 = scenario's run.checkpoint-every)",
                  "0");
  parser.add_flag("resume", "resume from checkpoint base B's B.manifest",
                  "");
  parser.add_flag("stop-after",
                  "stop after this many total rounds and checkpoint "
                  "(kill-and-resume testing; requires --checkpoint-out)",
                  "0");
  parser.add_flag("timeseries-out",
                  "write the multi-tier time series here after a complete "
                  "run (forces recording on; bytes depend only on scenario "
                  "semantics + seed)",
                  "");
  parser.add_flag("flight-recorder",
                  "arm the flight recorder; the postmortem bundle lands "
                  "here when a trigger fires",
                  "");
  parser.add_flag("debug-trigger",
                  "fire this trigger after the run for exercising the "
                  "bundle path (auditor-violation | expectation-failure | "
                  "shed-spike | resume-mismatch | manual)",
                  "");
  parser.add_flag("print-canonical",
                  "print the canonical scenario text and digest inputs, "
                  "then exit",
                  "false");
  parser.add_flag("force",
                  "overwrite existing output files and another run's "
                  "checkpoint",
                  "false");

  try {
    if (!parser.parse_or_exit(argc, argv)) return 0;
    return run(parser);
  } catch (const scenario::ScenarioError& error) {
    io::fail_usage(error.what());
  } catch (const fault::ScheduleError& error) {
    io::fail_usage(error.what());
  } catch (const iba::ContractViolation& error) {
    io::fail_usage(error.what());  // covers io::UsageError too
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
