// Byte pins for the on-disk checkpoint formats. Each case saves a
// checkpoint of a scenario from the bank mid-run and compares the file's
// header line — `<magic> <version> <body crc32> <body bytes>` — with the
// value the format has always produced. A change to how checkpoints or
// shard files are rendered (or to the CRC) that moves a single byte fails
// here, even when a save/load round trip still agrees with itself.
//
// The cases cover every optional section: fault-plan state (with bins
// still down), controller state (estimator rings and policy memory),
// Zipf-skewed bins, and the distributed engine's shard and coordinator
// files at W = 2.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/runner.hpp"
#include "dist/worker.hpp"
#include "net/socket.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/generation.hpp"

#ifndef IBA_REPO_DIR
#error "IBA_REPO_DIR must point at the repository root"
#endif

namespace iba {
namespace {

namespace fs = std::filesystem;

const fs::path kRepo = IBA_REPO_DIR;

/// A scratch directory unique to the running test case (ctest runs the
/// cases as concurrent processes).
fs::path case_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::temp_directory_path() / "iba_checkpoint_pins" /
                       (std::string(info->test_suite_name()) + "." +
                        info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string header_line(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Runs `scn` for `stop_after` rounds (burn-in included) and returns
/// the header of the generation's checkpoint it stops with.
std::string checkpoint_header(const scenario::Scenario& scn,
                              std::uint64_t stop_after) {
  scenario::RunOptions options;
  options.checkpoint_out = (case_dir() / "run.ckpt").string();
  options.stop_after = stop_after;
  const scenario::RunOutcome outcome = scenario::run_scenario(scn, options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.rounds_done, stop_after);
  return header_line(sim::coord_path(options.checkpoint_out, stop_after));
}

/// The same, for the bank scenario `name`.
std::string checkpoint_header(const char* name, std::uint64_t stop_after) {
  return checkpoint_header(
      scenario::load_scenario_file(
          (kRepo / "scenarios" / (std::string(name) + ".scn")).string()),
      stop_after);
}

TEST(CheckpointPins, FaultRecoveryMidOutage) {
  // Round 110: the crash at 96 keeps bins 0-31 down until 120, so the
  // fault-down list is non-empty.
  EXPECT_EQ(checkpoint_header("fault_recovery", 110),
            "iba-checkpoint 3 2827998230 5359");
}

TEST(CheckpointPins, FaultsUnderPoissonArrivalsAndControl) {
  // The only pin where a faulted round also draws its arrival count from
  // the engine, with the controller retuning c at the same boundaries:
  // the fault plan's per-round hook must keep its place relative to the
  // engine's draws. Round 70: the crash at 56 keeps bins 0-31 down until
  // 80, and bins 100-199 stay degraded until 90.
  constexpr const char* kFaultedPoissonControl = R"(
[scenario]
name = pin_faulted_poisson_control

[system]
n = 1024
c = 1

[arrival]
model = constant
distribution = poisson
lambda = 0.9375

[faults]
schedule = crash@56:bins=0-31,down=24; degrade@60:bins=100-199,cap=1,for=30
seed = 5

[control]
policy = sweet-spot
c-max = 8
window = 16
cooldown = 8
hysteresis = 0.1

[run]
rounds = 128
burn-in = 32
seed = 12
)";
  EXPECT_EQ(checkpoint_header(scenario::parse_scenario(kFaultedPoissonControl,
                                                       "pin.scn"),
                              70),
            "iba-checkpoint 3 3252011290 6223");
}

TEST(CheckpointPins, AdaptiveSweetSpotMidRun) {
  EXPECT_EQ(checkpoint_header("adaptive_sweetspot", 200),
            "iba-checkpoint 3 560870598 6296");
}

TEST(CheckpointPins, ZipfHotkeysMidRun) {
  EXPECT_EQ(checkpoint_header("zipf_hotkeys", 160),
            "iba-checkpoint 3 3424416066 6210");
}

TEST(CheckpointPins, DistBankShardsAtTwoWorkers) {
  const scenario::Scenario scn = scenario::load_scenario_file(
      (kRepo / "scenarios" / "dist_bank.scn").string());
  const std::string base = (case_dir() / "bank").string();
  {
    std::vector<net::Socket> coordinator_side;
    std::vector<net::Socket> worker_side;
    std::vector<std::thread> threads;
    for (std::uint32_t w = 0; w < 2; ++w) {
      auto [coordinator, worker] = net::socket_pair();
      coordinator_side.push_back(std::move(coordinator));
      worker_side.push_back(std::move(worker));
    }
    for (std::uint32_t w = 0; w < 2; ++w) {
      threads.emplace_back(
          [fd = worker_side[w].fd(), w] { (void)dist::Worker(fd, w).run(); });
    }
    dist::DistRunOptions options;
    options.checkpoint_base = base;
    options.stop_after = 100;
    const scenario::RunOutcome outcome = dist::run_distributed(
        scn, {coordinator_side[0].fd(), coordinator_side[1].fd()}, options);
    EXPECT_FALSE(outcome.complete);
    for (net::Socket& socket : coordinator_side) socket.close();
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(header_line(sim::shard_path(base, 100, 0)),
            "iba-dist-shard 1 43293944 6163");
  EXPECT_EQ(header_line(sim::shard_path(base, 100, 1)),
            "iba-dist-shard 1 2084020518 6220");
  // The coordinator file is a checkpoint whose bins are all empty.
  EXPECT_EQ(header_line(sim::coord_path(base, 100)),
            "iba-checkpoint 3 174371433 2348");
}

}  // namespace
}  // namespace iba
