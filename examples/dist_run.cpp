// dist_run — the multi-process distributed engine (docs/DISTRIBUTED.md).
//
// One coordinator plus W workers, each its own process, round-
// synchronized over TCP. The artifact is byte-identical to the
// single-process run of the same (scenario, seed):
//
//   $ ./dist_run --role coordinator --listen 127.0.0.1:7601 --workers 4
//       --scenario scenarios/steady_baseline.scn --out dist.artifact &
//   $ for i in 0 1 2 3; do
//       ./dist_run --role worker --connect 127.0.0.1:7601 --index $i &
//     done; wait
//   $ ./scenario_run --scenario scenarios/steady_baseline.scn --out solo.artifact
//   $ cmp dist.artifact solo.artifact
//
// Kill-a-worker resume: run the coordinator with --checkpoint-out B
// --checkpoint-every K, kill -9 any process mid-run (the coordinator
// exits 4 when a worker vanishes), then rerun every role with --resume;
// the finished artifact is still byte-identical to the uninterrupted
// single-process run.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 3 expectation
// or golden violation, 4 a worker was lost (crash / hang / bad frame).
#include <cstdio>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/runner.hpp"
#include "dist/worker.hpp"
#include "io/cli.hpp"
#include "net/socket.hpp"
#include "scenario/loop.hpp"
#include "scenario/scenario.hpp"
#include "sim/generation.hpp"

namespace {

using namespace iba;

int run_coordinator(const io::ArgParser& parser) {
  const std::string scenario_path = parser.get("scenario");
  if (scenario_path.empty()) {
    throw io::UsageError("dist_run: --scenario is required for the coordinator");
  }
  const scenario::Scenario scn = scenario::load_scenario_file(scenario_path);
  const std::uint32_t workers =
      static_cast<std::uint32_t>(parser.get_uint_range("workers", 1, 65535));

  dist::DistRunOptions options;
  if (parser.provided("seed")) options.seed = parser.get_uint("seed");
  options.checkpoint_base = parser.get("checkpoint-out");
  options.checkpoint_every = parser.get_uint("checkpoint-every");
  options.resume = parser.get_bool("resume");
  options.stop_after = parser.get_uint("stop-after");
  options.timeout_ms =
      static_cast<int>(parser.get_uint_range("timeout-ms", 1, 3'600'000));
  options.throttle_us = parser.get_uint("throttle-us");
  // Reject bad options before any worker connects.
  (void)scenario::plan_run(scn, options.seed, !options.checkpoint_base.empty(),
                           options.checkpoint_every, options.stop_after);
  if (options.resume && options.checkpoint_base.empty()) {
    throw io::UsageError("dist_run: --resume requires --checkpoint-out");
  }

  const std::string out_path = parser.get("out");
  const std::string golden_path = parser.get("golden");
  const bool force = parser.get_bool("force");
  io::guard_overwrite(out_path, force, "--out");
  // A fresh run must not replace another run's committed generation; a
  // resume keeps saving under the base it resumed from.
  if (!options.resume && !options.checkpoint_base.empty()) {
    io::guard_overwrite(sim::manifest_path(options.checkpoint_base), force,
                        "--checkpoint-out");
  }

  const io::HostPort endpoint =
      io::parse_host_port(parser.get("listen"), "--listen");
  const net::Socket listener = net::listen_tcp(endpoint.host, endpoint.port);
  std::fprintf(stderr, "[dist] coordinator: %s (digest %s), waiting for %u "
               "worker(s) on port %u\n",
               scn.name.c_str(), scn.digest().c_str(), workers,
               net::local_port(listener));

  // Accept every worker before the run starts; the hello handshake
  // (inside the Coordinator) maps connections to bin-range slots, so
  // the accept order here is irrelevant.
  std::vector<net::Socket> accepted;
  accepted.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    net::Socket client = net::accept_client(listener, options.timeout_ms);
    if (!client.valid()) {
      std::fprintf(stderr,
                   "[dist] FAIL only %u of %u workers connected within "
                   "%d ms\n",
                   i, workers, options.timeout_ms);
      return 4;
    }
    accepted.push_back(std::move(client));
  }
  std::vector<int> fds;
  fds.reserve(workers);
  for (const net::Socket& socket : accepted) fds.push_back(socket.fd());

  scenario::RunOutcome outcome;
  try {
    outcome = dist::run_distributed(scn, fds, options);
  } catch (const dist::WorkerLost& error) {
    std::fprintf(stderr, "[dist] FAIL %s\n", error.what());
    return 4;
  }
  return scenario::report_outcome(outcome, "dist", options.checkpoint_base,
                                  out_path, golden_path, "");
}

int run_worker(const io::ArgParser& parser) {
  const io::HostPort endpoint =
      io::parse_host_port(parser.get("connect"), "--connect");
  const std::uint32_t index =
      static_cast<std::uint32_t>(parser.get_uint_range("index", 0, 65534));
  const net::Socket socket = net::connect_tcp(endpoint.host, endpoint.port);
  dist::Worker worker(socket.fd(), index);
  const bool clean = worker.run();
  std::fprintf(stderr,
               "[dist] worker %u: %s after %llu round(s), %llu ball(s) "
               "held; draw %.3f ms, sweep %.3f ms per round\n",
               index, clean ? "shutdown" : "coordinator hung up",
               static_cast<unsigned long long>(worker.rounds_served()),
               static_cast<unsigned long long>(worker.total_load()),
               worker.draw_ms_per_round(), worker.sweep_ms_per_round());
  // A vanished coordinator is routine during kill-and-resume drills: the
  // restarted coordinator spawns fresh workers, so exit clean either way.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("dist_run",
                       "multi-process distributed engine: coordinator + "
                       "bin-range workers over TCP, byte-identical to the "
                       "single-process run");
  parser.add_flag("role", "coordinator | worker (required)", "");
  parser.add_flag("listen", "coordinator: host:port to listen on",
                  "127.0.0.1:7600");
  parser.add_flag("connect", "worker: coordinator host:port", "");
  parser.add_flag("index", "worker: bin-range slot in [0, workers)", "0");
  parser.add_flag("workers", "coordinator: worker count", "2");
  parser.add_flag("scenario", "coordinator: scenario file to run", "");
  parser.add_flag("out", "write the artifact here (default: stdout)", "");
  parser.add_flag("golden",
                  "compare the artifact against this golden file; any byte "
                  "difference exits 3",
                  "");
  parser.add_flag("seed", "override the scenario's seed", "");
  parser.add_flag("checkpoint-out",
                  "distributed checkpoint base path (manifest + coordinator "
                  "+ shard files)",
                  "");
  parser.add_flag("checkpoint-every",
                  "checkpoint cadence in rounds (requires --checkpoint-out; "
                  "0 = scenario's run.checkpoint-every)",
                  "0");
  parser.add_flag("resume",
                  "resume from the --checkpoint-out manifest instead of "
                  "starting fresh",
                  "false");
  parser.add_flag("stop-after",
                  "stop after this many total rounds and checkpoint "
                  "(kill-and-resume testing; requires --checkpoint-out)",
                  "0");
  parser.add_flag("timeout-ms",
                  "per-response worker deadline; a silent worker past this "
                  "is treated as lost (exit 4)",
                  "30000");
  parser.add_flag("throttle-us",
                  "coordinator: sleep this long after each round (widens "
                  "the kill window in drills)",
                  "0");
  parser.add_flag("force",
                  "overwrite existing output files and another run's "
                  "checkpoint",
                  "false");

  try {
    if (!parser.parse_or_exit(argc, argv)) return 0;
    const std::string role = parser.get("role");
    if (role == "coordinator") return run_coordinator(parser);
    if (role == "worker") return run_worker(parser);
    throw io::UsageError(
        "dist_run: --role expects coordinator or worker, got '" + role + "'");
  } catch (const scenario::ScenarioError& error) {
    io::fail_usage(error.what());
  } catch (const iba::ContractViolation& error) {
    io::fail_usage(error.what());  // covers io::UsageError too
  } catch (const net::NetError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
