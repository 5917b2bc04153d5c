// run_distributed — a scenario run whose bins live in remote workers
// (docs/DISTRIBUTED.md): a dist::Coordinator driven through
// scenario::run_loop (scenario/loop.hpp), the loop run_scenario drives a
// core::Capped through, and saved and resumed through the same
// checkpoint generation (sim/generation.hpp). Only the coordinator's
// construction or resume, its shard and coordinator files and
// shutdown() are its own. So with the coordinator's byte-identical
// rounds, a distributed run's artifact equals the single-process run's
// for the same (scenario, seed), as the differential tests and CI
// dist-smoke check.
//
// Not supported distributed (guarded with clear errors): fault
// schedules (worker-side coins would fork the engine stream), the
// invariant auditor and ball tracing (both need the full in-process
// state), and recording sidecars. Backpressure, adaptive control,
// arrival models and Zipf skew all run coordinator-side and work
// unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace iba::dist {

struct DistRunOptions {
  std::optional<std::uint64_t> seed;  ///< override [run] seed

  /// Checkpoint generation base path ("" = no checkpoints). Files land
  /// as `<base>.r<R>.{coord,coord.progress,shard<w>}` + `<base>.manifest`
  /// (sim/generation.hpp).
  std::string checkpoint_base;
  /// Cadence in rounds; 0 adopts the scenario's checkpoint-every.
  std::uint64_t checkpoint_every = 0;
  /// Resume from checkpoint_base's committed manifest generation.
  bool resume = false;
  /// Stop (checkpoint and return, complete = false) after this many
  /// total rounds. Requires checkpoint_base. For kill-and-resume tests.
  std::uint64_t stop_after = 0;

  /// Poll deadline on every expected worker response, ms.
  int timeout_ms = 30'000;
  /// Sleep this long after every round (CI uses it to make "kill a
  /// worker mid-run" land mid-run reliably). 0 = full speed.
  std::uint64_t throttle_us = 0;
  /// Called after every completed round (tests hook failure injection
  /// and progress probes here). May be empty.
  std::function<void(std::uint64_t round)> on_round;
};

/// Runs `scenario` across the connected workers. `worker_fds` are the
/// accepted sockets (any order; the hello handshake assigns ranges) and
/// stay owned by the caller. Throws common::ContractViolation on
/// unsupported scenario features or broken resume identity, WorkerLost
/// when a worker dies or stalls, and std::runtime_error on IO failures.
[[nodiscard]] scenario::RunOutcome run_distributed(
    const scenario::Scenario& scenario, const std::vector<int>& worker_fds,
    const DistRunOptions& options = {});

}  // namespace iba::dist
