// The distributed engine's core contract: a coordinator plus W
// bin-range workers produces BYTE-IDENTICAL artifacts to the
// single-process run of the same (scenario, seed) — including through
// a worker kill and resume. Workers here are real dist::Worker
// instances on threads over AF_UNIX socketpairs, so the full wire
// protocol (hello/init/round/checkpoint/shutdown frames) is exercised
// in-process.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/assert.hpp"
#include "core/bin_samplers.hpp"
#include "core/capped.hpp"
#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/runner.hpp"
#include "dist/worker.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "scenario/arrival.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace iba::dist {
namespace {

// The distributed member of the scenario bank, minus the file: audit
// off (no node holds the full state), defer backpressure, Poisson
// arrivals — every coordinator-side feature the engine supports.
constexpr const char* kBank = R"(
[scenario]
name = dist_probe

[system]
n = 256
c = 2

[arrival]
model = constant
distribution = poisson
lambda = 0.875

[backpressure]
mode = defer
pool-limit = 512
backoff = 4

[run]
rounds = 96
burn-in = 24
seed = 21

[expect]
max-shed = 0
)";

// Zipf skew + the sweet-spot controller: the coordinator must drive
// the BinChoiceSampler and the control plane exactly as the
// single-process runner does.
constexpr const char* kSkewControl = R"(
[scenario]
name = dist_skew_control

[system]
n = 256
c = 1

[arrival]
model = sinusoid
lambda = 0.75
amplitude = 0.125
period = 24
skew = zipf
zipf-s = 1

[control]
policy = sweet-spot
c-max = 8
window = 16
cooldown = 8
hysteresis = 0.1

[run]
rounds = 96
burn-in = 24
seed = 9
)";

/// Real workers on threads, one socketpair each. The coordinator-side
/// fds go to run_distributed; kill() simulates a kill -9 by shutting
/// the worker's socket down under it (its blocked read sees EOF and
/// the thread exits, exactly like a vanished process).
class WorkerFleet {
 public:
  explicit WorkerFleet(std::uint32_t count) {
    coordinator_side_.reserve(count);
    worker_side_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      auto [coordinator, worker] = net::socket_pair();
      coordinator_side_.push_back(std::move(coordinator));
      worker_side_.push_back(std::move(worker));
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      threads_.emplace_back([fd = worker_side_[i].fd(), i] {
        try {
          Worker(fd, i).run();
        } catch (...) {
          // Transport errors after a mid-run kill are the test's doing.
        }
      });
    }
  }

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  ~WorkerFleet() {
    for (net::Socket& socket : coordinator_side_) socket.close();
    for (std::thread& thread : threads_) thread.join();
  }

  [[nodiscard]] std::vector<int> fds() const {
    std::vector<int> fds;
    fds.reserve(coordinator_side_.size());
    for (const net::Socket& socket : coordinator_side_) {
      fds.push_back(socket.fd());
    }
    return fds;
  }

  /// kill -9 equivalent: both directions of worker w's socket go dead.
  void kill(std::uint32_t worker) {
    ::shutdown(worker_side_[worker].fd(), SHUT_RDWR);
  }

 private:
  std::vector<net::Socket> coordinator_side_;
  std::vector<net::Socket> worker_side_;
  std::vector<std::thread> threads_;
};

std::string single_process_bytes(const scenario::Scenario& scn) {
  const scenario::RunOutcome outcome = scenario::run_scenario(scn);
  EXPECT_TRUE(outcome.complete);
  return artifact::render_artifact(outcome.artifact);
}

std::string distributed_bytes(const scenario::Scenario& scn,
                              std::uint32_t workers,
                              const DistRunOptions& options = {}) {
  WorkerFleet fleet(workers);
  const scenario::RunOutcome outcome =
      run_distributed(scn, fleet.fds(), options);
  EXPECT_TRUE(outcome.complete);
  return artifact::render_artifact(outcome.artifact);
}

std::string checkpoint_base(const char* name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "iba_dist_differential_test";
  std::filesystem::create_directories(dir);
  const std::string base = (dir / name).string();
  // Stale generations from a previous test run would trip the resume
  // identity checks in confusing ways; start clean.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.rfind(base, 0) == 0) std::filesystem::remove(entry.path());
  }
  return base;
}

TEST(DistDifferential, FourWorkersMatchSingleProcessByteForByte) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);
  EXPECT_EQ(distributed_bytes(scn, 4), baseline);
}

TEST(DistDifferential, WorkerCountIsInvisible) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);
  // 1 worker (degenerate), 3 (uneven 256 = 86+85+85), 7 (very uneven).
  EXPECT_EQ(distributed_bytes(scn, 1), baseline);
  EXPECT_EQ(distributed_bytes(scn, 3), baseline);
  EXPECT_EQ(distributed_bytes(scn, 7), baseline);
}

TEST(DistDifferential, SkewAndControlPlaneMatchSingleProcess) {
  const scenario::Scenario scn =
      scenario::parse_scenario(kSkewControl, "skew.scn");
  const std::string baseline = single_process_bytes(scn);
  EXPECT_EQ(distributed_bytes(scn, 4), baseline);
}

TEST(DistDifferential, KilledWorkerSurfacesAsWorkerLost) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string base = checkpoint_base("killed");

  WorkerFleet fleet(4);
  DistRunOptions options;
  options.checkpoint_base = base;
  options.checkpoint_every = 16;
  options.timeout_ms = 5'000;
  options.on_round = [&fleet](std::uint64_t round) {
    if (round == 40) fleet.kill(2);
  };
  EXPECT_THROW(
      {
        try {
          (void)run_distributed(scn, fleet.fds(), options);
        } catch (const WorkerLost& error) {
          EXPECT_EQ(error.worker(), 2u);
          throw;
        }
      },
      WorkerLost);
}

TEST(DistDifferential, KillAndResumeReproducesTheBytes) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);
  const std::string base = checkpoint_base("resume");

  // Run until the round-32 checkpoint has committed, then kill a
  // worker: the manifest on disk points at round 32.
  {
    WorkerFleet fleet(4);
    DistRunOptions options;
    options.checkpoint_base = base;
    options.checkpoint_every = 32;
    options.timeout_ms = 5'000;
    options.on_round = [&fleet](std::uint64_t round) {
      if (round == 33) fleet.kill(1);
    };
    EXPECT_THROW((void)run_distributed(scn, fleet.fds(), options), WorkerLost);
  }

  // Fresh processes, same checkpoint base: the finished artifact must
  // match the uninterrupted single-process run byte for byte.
  DistRunOptions resume;
  resume.checkpoint_base = base;
  resume.resume = true;
  resume.timeout_ms = 5'000;
  EXPECT_EQ(distributed_bytes(scn, 4, resume), baseline);
}

TEST(DistDifferential, FailedManifestCommitResumesFromThePreviousGeneration) {
  // The round-64 generation's shard, coordinator and progress commits
  // land, then its manifest commit fails (the staging path is occupied by
  // a directory). The manifest on disk must still name round 32, and a
  // resume from it must reproduce the uninterrupted bytes.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);
  const std::string base = checkpoint_base("manifest_fail");
  const std::string staging = manifest_path(base) + ".tmp";
  std::filesystem::remove_all(staging);
  {
    WorkerFleet fleet(3);
    DistRunOptions options;
    options.checkpoint_base = base;
    options.checkpoint_every = 32;
    options.timeout_ms = 5'000;
    options.on_round = [&staging](std::uint64_t round) {
      if (round == 33) std::filesystem::create_directory(staging);
    };
    try {
      (void)run_distributed(scn, fleet.fds(), options);
      ADD_FAILURE() << "the manifest commit cannot have succeeded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("dist manifest: open failed"), std::string::npos)
          << what;
    }
  }
  EXPECT_TRUE(std::filesystem::exists(shard_path(base, 64, 0)));
  EXPECT_EQ(load_manifest(manifest_path(base)).round, 32u);
  std::filesystem::remove(staging);

  DistRunOptions resume;
  resume.checkpoint_base = base;
  resume.resume = true;
  resume.timeout_ms = 5'000;
  EXPECT_EQ(distributed_bytes(scn, 3, resume), baseline);
}

TEST(DistDifferential, CoordinatorStopAndResumeReproducesTheBytes) {
  // The coordinator-death drill: stop_after persists a generation and
  // exits (CI kills the real process with -9 between checkpoints; the
  // committed manifest is the same artifact either way).
  const scenario::Scenario scn =
      scenario::parse_scenario(kSkewControl, "skew.scn");
  const std::string baseline = single_process_bytes(scn);
  const std::string base = checkpoint_base("coord");

  {
    WorkerFleet fleet(3);
    DistRunOptions options;
    options.checkpoint_base = base;
    options.stop_after = 50;  // mid-measured-window (burn-in 24, total 120)
    options.timeout_ms = 5'000;
    const scenario::RunOutcome stopped =
        run_distributed(scn, fleet.fds(), options);
    EXPECT_FALSE(stopped.complete);
    EXPECT_EQ(stopped.rounds_done, 50u);
  }

  DistRunOptions resume;
  resume.checkpoint_base = base;
  resume.resume = true;
  resume.timeout_ms = 5'000;
  // Shard files are per-worker, so resuming with a different worker
  // count must be rejected (the manifest records the geometry).
  {
    WorkerFleet fleet(4);
    EXPECT_THROW((void)run_distributed(scn, fleet.fds(), resume),
                 ContractViolation);
  }
  EXPECT_EQ(distributed_bytes(scn, 3, resume), baseline);
}

TEST(DistDifferential, StragglerPastTheDeadlineIsLost) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");

  // Slot 0: a real worker. Slot 1: a straggler that handshakes, then
  // goes silent on the first round frame.
  auto [c0, w0] = net::socket_pair();
  auto [c1, w1] = net::socket_pair();
  std::thread real([fd = w0.fd()] {
    try {
      Worker(fd, 0).run();
    } catch (...) {
    }
  });
  std::thread straggler([fd = w1.fd()] {
    try {
      send_hello(fd, HelloMsg{kProtocolVersion, 1});
      std::uint32_t type = 0;
      std::vector<std::uint8_t> payload;
      ASSERT_TRUE(net::read_frame(fd, type, payload));
      ASSERT_EQ(type, static_cast<std::uint32_t>(kMsgInit));
      net::WireReader in(payload);
      const InitMsg init = decode_init(in);
      send_init_ack(fd, InitAckMsg{init.round, 0});
      // Receive the first round frame, then stall past any deadline.
      ASSERT_TRUE(net::read_frame(fd, type, payload));
      std::this_thread::sleep_for(std::chrono::milliseconds(1'500));
    } catch (...) {
    }
  });

  DistRunOptions options;
  options.timeout_ms = 100;
  try {
    (void)run_distributed(scn, {c0.fd(), c1.fd()}, options);
    FAIL() << "a silent worker must surface as WorkerLost";
  } catch (const WorkerLost& error) {
    EXPECT_EQ(error.worker(), 1u);
    EXPECT_NE(std::string(error.what()).find("no response"),
              std::string::npos)
        << error.what();
  }
  c0.close();
  c1.close();
  real.join();
  straggler.join();
}

TEST(DistDifferential, DivergentPostDrawEngineStateIsLost) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");

  // Slot 0: a real worker. Slot 1: a fake that answers the first round
  // with a well-formed result whose post-draw engine state is the
  // pre-draw one — not where a worker that drew the round ends up.
  auto [c0, w0] = net::socket_pair();
  auto [c1, w1] = net::socket_pair();
  std::thread real([fd = w0.fd()] {
    try {
      Worker(fd, 0).run();
    } catch (...) {
    }
  });
  std::thread fake([fd = w1.fd()] {
    try {
      send_hello(fd, HelloMsg{kProtocolVersion, 1});
      std::uint32_t type = 0;
      std::vector<std::uint8_t> payload;
      ASSERT_TRUE(net::read_frame(fd, type, payload));
      ASSERT_EQ(type, static_cast<std::uint32_t>(kMsgInit));
      net::WireReader init_in(payload);
      const InitMsg init = decode_init(init_in);
      send_init_ack(fd, InitAckMsg{init.round, 0});
      ASSERT_TRUE(net::read_frame(fd, type, payload));
      ASSERT_EQ(type, static_cast<std::uint32_t>(kMsgRound));
      net::WireReader round_in(payload);
      const RoundMsg round = decode_round(round_in);
      ASSERT_FALSE(round.buckets.empty());  // the round draws something
      RoundResultMsg result;
      result.round = round.round;
      result.engine = round.engine;
      result.rejected.resize(round.buckets.size());
      send_round_result(fd, result);
      while (net::read_frame(fd, type, payload)) {
      }
    } catch (...) {
    }
  });

  DistRunOptions options;
  options.timeout_ms = 5'000;
  try {
    (void)run_distributed(scn, {c0.fd(), c1.fd()}, options);
    FAIL() << "a divergent engine state must surface as WorkerLost";
  } catch (const WorkerLost& error) {
    EXPECT_EQ(error.worker(), 1u);
    EXPECT_NE(std::string(error.what()).find("engine state"),
              std::string::npos)
        << error.what();
  }
  c0.close();
  c1.close();
  real.join();
  fake.join();
}

TEST(DistDifferential, HandshakeRejectsBadVersionAndDuplicateSlots) {
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");

  {  // wrong protocol version
    auto [c, w] = net::socket_pair();
    send_hello(w.fd(), HelloMsg{kProtocolVersion + 1, 0});
    DistRunOptions options;
    options.timeout_ms = 1'000;
    EXPECT_THROW((void)run_distributed(scn, {c.fd()}, options), WorkerLost);
  }
  {  // two connections claiming the same bin-range slot
    auto [c0, w0] = net::socket_pair();
    auto [c1, w1] = net::socket_pair();
    send_hello(w0.fd(), HelloMsg{kProtocolVersion, 0});
    send_hello(w1.fd(), HelloMsg{kProtocolVersion, 0});
    DistRunOptions options;
    options.timeout_ms = 1'000;
    EXPECT_THROW((void)run_distributed(scn, {c0.fd(), c1.fd()}, options),
                 WorkerLost);
  }
}

TEST(DistDifferential, HelloOrderIsIrrelevant) {
  // Workers announce their slot; connection order must not matter.
  // Reverse the fd order handed to the coordinator relative to the
  // slots the workers claim.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);

  std::vector<net::Socket> coordinator_side;
  std::vector<net::Socket> worker_side;
  for (int i = 0; i < 4; ++i) {
    auto [c, w] = net::socket_pair();
    coordinator_side.push_back(std::move(c));
    worker_side.push_back(std::move(w));
  }
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < 4; ++i) {
    // The worker on socketpair i serves slot 3 - i.
    threads.emplace_back([fd = worker_side[i].fd(), slot = 3 - i] {
      try {
        Worker(fd, slot).run();
      } catch (...) {
      }
    });
  }
  std::vector<int> fds;
  for (const net::Socket& socket : coordinator_side) fds.push_back(socket.fd());
  const scenario::RunOutcome outcome = run_distributed(scn, fds);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(artifact::render_artifact(outcome.artifact), baseline);
  for (net::Socket& socket : coordinator_side) socket.close();
  for (std::thread& thread : threads) thread.join();
}

TEST(DistDifferential, DistributedScenariosRejectUnsupportedFeatures) {
  // Fault schedules and the auditor need the full in-process state.
  constexpr const char* kFaulted = R"(
[scenario]
name = dist_faulted
[system]
n = 64
c = 2
[arrival]
model = constant
lambda = 0.5
[faults]
schedule = crash@8:bins=0-3,down=4
[run]
rounds = 16
seed = 1
)";
  const scenario::Scenario faulted =
      scenario::parse_scenario(kFaulted, "faulted.scn");
  WorkerFleet fleet(1);
  EXPECT_THROW((void)run_distributed(faulted, fleet.fds()), ContractViolation);

  // Workers draw the choices, so only samplers they can rebuild from
  // the round frame are accepted: uniform (nullptr) and Zipf over n.
  core::CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 32;
  WorkerFleet sampler_fleet(1);
  Coordinator coordinator(config, core::Engine(1), sampler_fleet.fds());
  const core::Capped process(config, core::Engine(1));
  core::GreedyChoiceSampler greedy(process, 2);
  core::WeightedBinSampler weighted(64, std::vector<double>(64, 1.0));
  scenario::ZipfBinSampler wrong_n(32, 1.0);
  for (core::BinChoiceSampler* sampler :
       {static_cast<core::BinChoiceSampler*>(&greedy),
        static_cast<core::BinChoiceSampler*>(&weighted),
        static_cast<core::BinChoiceSampler*>(&wrong_n)}) {
    try {
      coordinator.set_bin_sampler(sampler);
      ADD_FAILURE() << "an unsupported sampler was accepted";
    } catch (const ContractViolation& error) {
      EXPECT_NE(std::string(error.what()).find("Zipf"), std::string::npos)
          << error.what();
    }
  }
  scenario::ZipfBinSampler zipf(64, 1.0);
  EXPECT_NO_THROW(coordinator.set_bin_sampler(&zipf));
  EXPECT_NO_THROW(coordinator.set_bin_sampler(nullptr));
  coordinator.shutdown();
}

}  // namespace
}  // namespace iba::dist
