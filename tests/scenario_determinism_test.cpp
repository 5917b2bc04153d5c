// The determinism contract of the scenario engine: artifact bytes are a
// function of (scenario semantics, seed) only. Kernel choice, shard
// count, and kill-and-resume must leave them unchanged; a different
// seed must not.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "artifact/artifact.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/generation.hpp"

namespace iba::scenario {
namespace {

// A scenario that exercises most moving parts at once: time-varying
// rate, Zipf skew, a crash, and the auditor.
constexpr const char* kLoaded = R"(
[scenario]
name = determinism_probe

[system]
n = 512
c = 2

[arrival]
model = sinusoid
lambda = 0.75
amplitude = 0.125
period = 48
skew = zipf
zipf-s = 1

[faults]
schedule = crash@40:bins=0-7,down=12

[run]
rounds = 120
burn-in = 32
seed = 21

[expect]
audit = on
audit-every = 16
)";

// Zipf skew and faults at 98400 bins: 13 chunks of 8192 bins, so with 4
// shards every shard's sweep covers at least 3 chunks.
constexpr const char* kMultiChunk = R"(
[scenario]
name = determinism_multi_chunk

[system]
n = 98400
c = 2

[arrival]
model = constant
lambda = 0.75
skew = zipf
zipf-s = 1

[faults]
schedule = crash@6:bins=0-30000,down=5;straggle:bins=50000-60000,period=3

[run]
rounds = 24
burn-in = 8
seed = 21
)";

// The adaptive controller at the same size: the artifact's control
// counters come from the live controller, not a snapshot.
constexpr const char* kMultiChunkControl = R"(
[scenario]
name = determinism_multi_chunk_control

[system]
n = 98400
c = 1

[arrival]
model = constant
lambda = 0.96875

[control]
policy = sweet-spot
c-max = 8
window = 8
cooldown = 8
hysteresis = 0.1

[run]
rounds = 32
burn-in = 8
seed = 9
)";

artifact::ResultArtifact run_artifact(const Scenario& scn,
                                      const RunOptions& options = {}) {
  const RunOutcome outcome = run_scenario(scn, options);
  EXPECT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? "?"
                                    : outcome.failures.front());
  return outcome.artifact;
}

std::string run_bytes(const Scenario& scn, const RunOptions& options = {}) {
  return artifact::render_artifact(run_artifact(scn, options));
}

TEST(ScenarioDeterminism, KernelAndShardsLeaveBytesUnchanged) {
  RunOptions scalar;
  scalar.kernel = core::RoundKernel::kScalar;
  RunOptions sharded;
  sharded.kernel = core::RoundKernel::kBinMajor;
  sharded.shards = 4;

  for (const char* text : {kLoaded, kMultiChunk, kMultiChunkControl}) {
    const Scenario scn = parse_scenario(text, "det.scn");
    SCOPED_TRACE(scn.name);
    const artifact::ResultArtifact baseline = run_artifact(scn);
    const std::string bytes = artifact::render_artifact(baseline);
    EXPECT_EQ(run_bytes(scn, scalar), bytes);
    EXPECT_EQ(run_bytes(scn, sharded), bytes);
    if (scn.control.enabled()) {
      EXPECT_TRUE(baseline.has_control);
      EXPECT_GT(baseline.control_changes, 0u);
    }
  }
}

TEST(ScenarioDeterminism, RepeatRunsAreIdentical) {
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  EXPECT_EQ(run_bytes(scn), run_bytes(scn));
}

TEST(ScenarioDeterminism, SeedMovesTheBytes) {
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  RunOptions reseeded;
  reseeded.seed = 22;
  EXPECT_NE(run_bytes(scn, reseeded), run_bytes(scn));
}

TEST(ScenarioDeterminism, KillAndResumeReproducesTheRun) {
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  const std::string baseline = run_bytes(scn);

  const auto dir = std::filesystem::temp_directory_path() /
                   "iba_scenario_determinism_test";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "probe.ckpt").string();

  // Kill mid-measured-window (burn-in is 32, total is 152)...
  RunOptions first;
  first.checkpoint_out = ckpt;
  first.stop_after = 90;
  const RunOutcome stopped = run_scenario(scn, first);
  EXPECT_FALSE(stopped.complete);
  EXPECT_EQ(stopped.rounds_done, 90u);

  // ...and resume on a DIFFERENT kernel: still byte-identical.
  RunOptions second;
  second.resume = ckpt;
  second.kernel = core::RoundKernel::kScalar;
  EXPECT_EQ(run_bytes(scn, second), baseline);

  // Kill inside the burn-in too (before the wait-stats reset).
  RunOptions early;
  early.checkpoint_out = ckpt;
  early.stop_after = 20;
  (void)run_scenario(scn, early);
  RunOptions finish;
  finish.resume = ckpt;
  EXPECT_EQ(run_bytes(scn, finish), baseline);

  std::filesystem::remove_all(dir);
}

TEST(ScenarioDeterminism, StopAroundTheBurnInBoundaryResumesToTheSameBytes) {
  // The loop clears the wait statistics at the last burn-in round before
  // that round's checkpoint: a stop exactly there must save the cleared
  // waits, and one on either side must not be affected.
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  const std::string baseline = run_bytes(scn);
  const auto dir = std::filesystem::temp_directory_path() /
                   "iba_scenario_burn_in_boundary_test";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "probe.ckpt").string();
  for (const std::uint64_t stop :
       {scn.burn_in - 1, scn.burn_in, scn.burn_in + 1}) {
    SCOPED_TRACE(stop);
    RunOptions first;
    first.checkpoint_out = ckpt;
    first.stop_after = stop;
    const RunOutcome stopped = run_scenario(scn, first);
    EXPECT_FALSE(stopped.complete);
    EXPECT_EQ(stopped.rounds_done, stop);
    RunOptions resume;
    resume.resume = ckpt;
    EXPECT_EQ(run_bytes(scn, resume), baseline);
  }
  std::filesystem::remove_all(dir);
}

/// A fresh directory for one case's checkpoint generations.
std::filesystem::path case_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ScenarioDeterminism, SidecarLostInACrashResumesThePreviousGeneration) {
  // The files a crash leaves after the round-120 checkpoint commit and
  // before its progress sidecar commit: the round-120 checkpoint without
  // its sidecar, and the round-60 manifest still committed. The resume
  // continues from round 60 and ends with the uninterrupted bytes.
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  const std::string baseline = run_bytes(scn);
  const auto dir = case_dir("iba_scenario_crash_window_test");
  const std::string base = (dir / "probe.ckpt").string();
  const std::string manifest = sim::manifest_path(base);

  RunOptions first;
  first.checkpoint_out = base;
  first.stop_after = 60;
  EXPECT_FALSE(run_scenario(scn, first).complete);
  std::filesystem::copy_file(manifest, dir / "round60.manifest");

  RunOptions second;
  second.resume = base;
  second.checkpoint_out = base;
  second.stop_after = 120;
  EXPECT_FALSE(run_scenario(scn, second).complete);
  std::filesystem::copy_file(dir / "round60.manifest", manifest,
                             std::filesystem::copy_options::overwrite_existing);
  ASSERT_TRUE(std::filesystem::remove(sim::progress_path(base, 120)));

  RunOptions resume;
  resume.resume = base;
  EXPECT_EQ(run_bytes(scn, resume), baseline);
  std::filesystem::remove_all(dir);
}

TEST(ScenarioDeterminism, StopResumeAndCompleteLeaveTwoGenerations) {
  // A resume that saves under its own base collects the generation the
  // manifest kept, so a completed run leaves exactly its last cadence
  // generation and its final one (burn-in 32 + 120 rounds = 152).
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  const std::string baseline = run_bytes(scn);
  const auto dir = case_dir("iba_scenario_two_generations_test");
  const std::string base = (dir / "probe.ckpt").string();

  RunOptions first;
  first.checkpoint_out = base;
  first.checkpoint_every = 16;
  first.stop_after = 70;
  EXPECT_FALSE(run_scenario(scn, first).complete);
  RunOptions resume;
  resume.resume = base;
  resume.checkpoint_out = base;
  resume.checkpoint_every = 16;
  EXPECT_EQ(run_bytes(scn, resume), baseline);

  std::set<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.insert(entry.path().string());
  }
  const std::set<std::string> want = {
      sim::manifest_path(base),         sim::coord_path(base, 144),
      sim::progress_path(base, 144),    sim::coord_path(base, 152),
      sim::progress_path(base, 152)};
  EXPECT_EQ(left, want);
  std::filesystem::remove_all(dir);
}

TEST(ScenarioDeterminism, ForcedFreshRunCollectsTheReplacedGenerations) {
  // A fresh run over a completed run's base (what --force allows)
  // replaces it: once its first manifest commits, the completed run's
  // generations (r144, r152) are named by nothing and are removed, so the
  // fresh run stopped at 40 leaves exactly its own two.
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  const auto dir = case_dir("iba_scenario_forced_fresh_test");
  const std::string base = (dir / "probe.ckpt").string();

  RunOptions complete;
  complete.checkpoint_out = base;
  complete.checkpoint_every = 16;
  EXPECT_TRUE(run_scenario(scn, complete).complete);
  ASSERT_TRUE(std::filesystem::exists(sim::coord_path(base, 152)));
  RunOptions fresh;
  fresh.checkpoint_out = base;
  fresh.checkpoint_every = 16;
  fresh.stop_after = 40;
  EXPECT_FALSE(run_scenario(scn, fresh).complete);

  std::set<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.insert(entry.path().string());
  }
  const std::set<std::string> want = {
      sim::manifest_path(base),       sim::coord_path(base, 32),
      sim::progress_path(base, 32),   sim::coord_path(base, 40),
      sim::progress_path(base, 40)};
  EXPECT_EQ(left, want);
  std::filesystem::remove_all(dir);
}

TEST(ScenarioDeterminism, InconsistentOptionsAreRejected) {
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  RunOptions no_ckpt;
  no_ckpt.stop_after = 10;
  EXPECT_THROW((void)run_scenario(scn, no_ckpt), iba::ContractViolation);

  RunOptions scalar_sharded;
  scalar_sharded.kernel = core::RoundKernel::kScalar;
  scalar_sharded.shards = 4;
  EXPECT_THROW((void)run_scenario(scn, scalar_sharded),
               iba::ContractViolation);
}

TEST(ScenarioDeterminism, ResumeRejectsForeignCheckpoint) {
  const Scenario scn = parse_scenario(kLoaded, "det.scn");
  const auto dir = std::filesystem::temp_directory_path() /
                   "iba_scenario_foreign_ckpt_test";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "probe.ckpt").string();
  RunOptions first;
  first.checkpoint_out = ckpt;
  first.stop_after = 40;
  (void)run_scenario(scn, first);

  // A scenario with different semantics must refuse this checkpoint.
  Scenario other = scn;
  other.seed = 99;
  RunOptions resume;
  resume.resume = ckpt;
  EXPECT_THROW((void)run_scenario(other, resume), iba::ContractViolation);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace iba::scenario
