// scenario::continue_run — the sidecar-free entry into the scenario
// loop that `simulate --resume` uses. An end-of-run checkpoint
// continued for K rounds must carry on the lifetime counters and the
// cumulative wait statistics of the uninterrupted run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "artifact/artifact.hpp"
#include "common/assert.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/checkpoint.hpp"

namespace iba::scenario {
namespace {

// Binomial arrivals, a crash and a straggler, and the auditor: every
// counter in [counters], [waits] and [faults] moves.
constexpr const char* kProbe = R"(
[scenario]
name = continue_probe

[system]
n = 1024
c = 2

[arrival]
model = constant
lambda = 0.875
distribution = binomial

[faults]
schedule = crash@70:bins=0-127,down=15;straggle:bins=512-543,period=3

[run]
rounds = 120
burn-in = 48
seed = 13

[expect]
audit = on
audit-every = 8
)";

constexpr std::uint64_t kMore = 60;

/// The text of one `[name]` section of a rendered artifact.
std::string section(const std::string& text, const std::string& name) {
  const std::size_t begin = text.find("[" + name + "]\n");
  EXPECT_NE(begin, std::string::npos) << name;
  return text.substr(begin, text.find("\n[", begin + 1) - begin);
}

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ContinueRun, EndOfRunCheckpointContinuesTheUninterruptedRun) {
  const Scenario scn = parse_scenario(kProbe, "continue.scn");
  const auto dir = temp_dir("iba_scenario_continue_test");
  const std::string ckpt = (dir / "end.ckpt").string();

  RunOptions save;
  save.checkpoint_out = ckpt;
  ASSERT_TRUE(run_scenario(scn, save).ok());

  Scenario whole = scn;
  whole.rounds = scn.rounds + kMore;
  const RunOutcome uninterrupted = run_scenario(whole);
  ASSERT_TRUE(uninterrupted.ok());

  Scenario tail = scn;
  tail.burn_in = scn.burn_in + scn.rounds;
  tail.rounds = kMore;
  RunOptions sharded;
  sharded.shards = 2;
  const RunOutcome continued =
      continue_run(tail, sim::load_checkpoint_full(ckpt), sharded);
  ASSERT_TRUE(continued.ok());
  EXPECT_EQ(continued.rounds_done, whole.burn_in + whole.rounds);

  const std::string want = artifact::render_artifact(uninterrupted.artifact);
  const std::string got = artifact::render_artifact(continued.artifact);
  for (const char* name : {"counters", "waits", "faults"}) {
    EXPECT_EQ(section(got, name), section(want, name)) << name;
  }
  // The measured-window fields cover the continued segment only.
  EXPECT_EQ(continued.artifact.rounds, kMore);
  EXPECT_EQ(continued.artifact.audit_rounds, kMore);

  std::filesystem::remove_all(dir);
}

TEST(ContinueRun, RejectsInconsistentInputs) {
  const Scenario scn = parse_scenario(kProbe, "continue.scn");
  const auto dir = temp_dir("iba_scenario_continue_reject_test");
  const std::string ckpt = (dir / "end.ckpt").string();
  RunOptions save;
  save.checkpoint_out = ckpt;
  (void)run_scenario(scn, save);

  Scenario tail = scn;
  tail.burn_in = scn.burn_in + scn.rounds;
  tail.rounds = kMore;
  RunOptions with_resume;
  with_resume.resume = ckpt;
  EXPECT_THROW(
      (void)continue_run(tail, sim::load_checkpoint_full(ckpt), with_resume),
      iba::ContractViolation);

  // A scenario that ends before the checkpoint's round.
  EXPECT_THROW((void)continue_run(scn, sim::load_checkpoint_full(ckpt)),
               iba::ContractViolation);

  Scenario wider = tail;
  wider.n = 2048;
  EXPECT_THROW((void)continue_run(wider, sim::load_checkpoint_full(ckpt)),
               iba::ContractViolation);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace iba::scenario
