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
#include <functional>
#include <limits>
#include <memory>
#include <set>
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
#include "io/sealed.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "scenario/arrival.hpp"
#include "scenario/progress.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/checkpoint.hpp"
#include "sim/generation.hpp"

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

// A fragmented pool over many chunks: Zipf(2) choices pile the λn = 20
// arrivals per round onto a few hot bins, so the pool keeps dozens of
// small age buckets while n = 10^6 spans 123 chunks of 8192 bins — the
// shape for which core::Capped's fused sweep bails out to its scalar
// path. n is not a multiple of 8192, so every range of a 3-worker split
// ends mid-chunk, and most buckets hold a ball or two, so many have no
// throw in some range.
constexpr const char* kFragmentedPool = R"(
[scenario]
name = dist_fragmented_pool

[system]
n = 1000000
c = 1

[arrival]
model = constant
lambda = 0.00002
skew = zipf
zipf-s = 2

[run]
rounds = 32
burn-in = 8
seed = 5
)";

// Deferred arrivals keep their arrival round as label. The pool limit
// sits just above λn, so each round defers the arrivals that do not fit
// beside the survivors, and with a backoff of 80 rounds every readmitted
// ball waits at least 80 rounds while the rest wait a few: served waits
// fall on both sides of the delete walk's 64-value tally bound.
// n = 20000 spans three chunks, so a 3-worker split ends mid-chunk.
constexpr const char* kTallyBound = R"(
[scenario]
name = dist_tally_bound

[system]
n = 20000
c = 2

[arrival]
model = constant
lambda = 0.9375

[backpressure]
mode = defer
pool-limit = 20000
backoff = 80

[run]
rounds = 120
burn-in = 8
seed = 13
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

TEST(DistDifferential, WorkersSweepTheRoundsSingleProcessRunsScalar) {
  const scenario::Scenario scn =
      scenario::parse_scenario(kFragmentedPool, "fragmented.scn");
  // From the public API, the fused sweep's bail-out test: one sentinel
  // per (bucket, chunk) against half the round's throws. The single
  // process runs such rounds on its scalar path; the workers run the
  // range kernel on every round.
  core::Capped process(scenario::capped_config(scn), core::Engine(scn.seed));
  const std::unique_ptr<core::BinChoiceSampler> sampler =
      scn.arrival.make_sampler(scn.n);
  process.set_bin_sampler(sampler.get());
  const std::uint64_t chunks = (scn.n + 8191) / 8192;
  std::uint64_t scalar_rounds = 0;
  for (std::uint64_t round = 0; round < scn.burn_in + scn.rounds; ++round) {
    // The round adds one bucket of λn arrivals to the pool it throws.
    const std::uint64_t buckets = process.pool().buckets().size() + 1;
    const std::uint64_t throws = process.balls_to_throw();
    if (buckets * chunks > throws / 2 + 1024) ++scalar_rounds;
    (void)process.step();
  }
  EXPECT_GT(scalar_rounds, 0u);
  EXPECT_EQ(distributed_bytes(scn, 3), single_process_bytes(scn));
}

TEST(DistDifferential, WaitsAcrossTheTallyBoundMatchSingleProcess) {
  const scenario::Scenario scn =
      scenario::parse_scenario(kTallyBound, "tally.scn");
  const scenario::RunOutcome outcome = scenario::run_scenario(scn);
  ASSERT_TRUE(outcome.complete);
  // Log2Histogram bins 0-6 hold waits below 64, bins 7 and up the rest.
  const std::vector<std::uint64_t>& histogram =
      outcome.artifact.wait_histogram;
  std::uint64_t below = 0;
  std::uint64_t above = 0;
  for (std::size_t bin = 0; bin < histogram.size(); ++bin) {
    (bin < 7 ? below : above) += histogram[bin];
  }
  EXPECT_GT(below, 0u);
  EXPECT_GT(above, 0u);
  EXPECT_EQ(distributed_bytes(scn, 3),
            artifact::render_artifact(outcome.artifact));
}

// Runs `rounds` rounds of `config` on a Coordinator and `count`
// in-process Workers, calling after_round(metrics, workers) after each
// round; returns the workers once their threads have joined.
std::vector<std::unique_ptr<Worker>> run_workers(
    const core::CappedConfig& config, std::uint32_t count,
    std::uint64_t rounds,
    const std::function<void(const core::RoundMetrics&,
                             const std::vector<std::unique_ptr<Worker>>&)>&
        after_round = {}) {
  std::vector<net::Socket> coordinator_side;
  std::vector<net::Socket> worker_side;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto [c, w] = net::socket_pair();
    workers.push_back(std::make_unique<Worker>(w.fd(), i));
    coordinator_side.push_back(std::move(c));
    worker_side.push_back(std::move(w));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    threads.emplace_back(
        [&worker = *workers[i]] { EXPECT_NO_THROW((void)worker.run()); });
  }
  std::vector<int> fds;
  for (const net::Socket& socket : coordinator_side) {
    fds.push_back(socket.fd());
  }
  try {
    Coordinator coordinator(config, core::Engine(7), fds);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const core::RoundMetrics metrics = coordinator.step();
      if (after_round) after_round(metrics, workers);
    }
    coordinator.shutdown();
  } catch (const std::exception& error) {
    ADD_FAILURE() << error.what();
  }
  for (net::Socket& socket : coordinator_side) socket.close();
  for (std::thread& thread : threads) thread.join();
  return workers;
}

// Three chunks, the last one partial.
core::CappedConfig three_chunk_config() {
  core::CappedConfig config;
  config.n = 20'000;
  config.capacity = 2;
  config.lambda_n = 18'750;
  return config;
}

TEST(DistDifferential, WorkerRoundsAllocateNothingOnceWarm) {
  // Each worker's arena count after 200 rounds equals the count after
  // 40: the bin table and the throw streams stop growing once warm.
  const auto allocations = [](std::uint64_t rounds) {
    std::vector<std::uint64_t> counts;
    for (const auto& worker : run_workers(three_chunk_config(), 3, rounds)) {
      EXPECT_EQ(worker->rounds_served(), rounds);
      counts.push_back(worker->arena().allocation_count());
    }
    return counts;
  };
  EXPECT_EQ(allocations(200), allocations(40));
}

TEST(DistDifferential, WorkersKeepEveryThrowExactlyOnce) {
  // The ranges partition the bins, so in every round the workers'
  // kept-throw counts sum to the round's thrown: through the compacted
  // keep of a partial range (W = 3) and the full range (W = 1).
  for (const std::uint32_t count : {1u, 3u}) {
    std::uint64_t rounds_checked = 0;
    run_workers(three_chunk_config(), count, 30,
                [&](const core::RoundMetrics& metrics,
                    const std::vector<std::unique_ptr<Worker>>& workers) {
                  std::uint64_t kept = 0;
                  for (const auto& worker : workers) {
                    if (count > 1) {
                      EXPECT_LT(worker->kept_throws(), metrics.thrown);
                    }
                    kept += worker->kept_throws();
                  }
                  EXPECT_EQ(kept, metrics.thrown)
                      << count << " worker(s), round " << metrics.round;
                  ++rounds_checked;
                });
    EXPECT_EQ(rounds_checked, 30u);
  }
}

TEST(DistDifferential, WorkerInitRejectsRangesThatWrap) {
  // bin_lo + bin_count wraps 64 bits in both frames; the first would
  // otherwise serve global bin 0 as local bin 1, the second would size
  // a 2^32 - 1-bin table.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  InitMsg past_the_end;
  past_the_end.n = 100;
  past_the_end.bin_lo = kMax;
  past_the_end.bin_count = 2;
  past_the_end.capacity = 2;
  InitMsg wrapping_count;
  wrapping_count.n = 100;
  wrapping_count.bin_lo = 1;
  wrapping_count.bin_count = kMax;
  wrapping_count.capacity = 2;
  for (const InitMsg& init : {past_the_end, wrapping_count}) {
    auto [c, w] = net::socket_pair();
    send_init(c.fd(), init);  // buffered until the worker reads it
    ::shutdown(c.fd(), SHUT_WR);  // an accepted init then sees EOF
    try {
      (void)Worker(w.fd(), 0).run();
      ADD_FAILURE() << "a range that wraps was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("does not fit"),
                std::string::npos)
          << error.what();
    }
  }
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
  const std::string staging = sim::manifest_path(base) + ".tmp";
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
      EXPECT_NE(what.find("checkpoint manifest: open failed"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_TRUE(std::filesystem::exists(sim::shard_path(base, 64, 0)));
  EXPECT_EQ(sim::load_manifest(sim::manifest_path(base)).round, 32u);
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

/// Runs `scn` on `workers` workers until the stop_after = `round`
/// generation under `base` has committed.
void stop_at_round(const scenario::Scenario& scn, std::uint32_t workers,
                   const std::string& base, std::uint64_t round) {
  WorkerFleet fleet(workers);
  DistRunOptions options;
  options.checkpoint_base = base;
  options.stop_after = round;
  options.timeout_ms = 5'000;
  const scenario::RunOutcome stopped =
      run_distributed(scn, fleet.fds(), options);
  EXPECT_FALSE(stopped.complete);
  EXPECT_EQ(stopped.rounds_done, round);
}

DistRunOptions resume_options(const std::string& base) {
  DistRunOptions resume;
  resume.checkpoint_base = base;
  resume.resume = true;
  resume.timeout_ms = 5'000;
  return resume;
}

TEST(DistDifferential, ResumeRejectsAShardTheManifestDidNotCommit) {
  // Rewrite worker 1's shard with one queued label raised by a round: a
  // valid shard file with the same loads, so the restored total still
  // balances, but not the body the manifest committed.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string base = checkpoint_base("shard_crc");
  stop_at_round(scn, 2, base, 50);

  const std::string path = sim::shard_path(base, 50, 1);
  ShardState shard = load_shard(path);
  bool raised = false;
  std::size_t back = 0;  // one past the bin's last label
  for (const std::uint32_t load : shard.queues.loads) {
    back += load;
    // The back of a FIFO queue holds its youngest label, so raising it
    // keeps the queue in arrival order; labels never pass the round.
    if (load > 0 && shard.queues.labels[back - 1] < shard.round) {
      ++shard.queues.labels[back - 1];
      raised = true;
      break;
    }
  }
  ASSERT_TRUE(raised);
  const std::uint32_t committed =
      sim::load_manifest(sim::manifest_path(base)).shard_crcs[1];
  const std::uint32_t rewritten = save_shard(shard, path);
  ASSERT_NE(rewritten, committed);

  WorkerFleet fleet(2);
  try {
    (void)run_distributed(scn, fleet.fds(), resume_options(base));
    ADD_FAILURE() << "a shard the manifest did not commit was resumed";
  } catch (const WorkerLost& error) {
    EXPECT_EQ(error.worker(), 1u);
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(rewritten)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(committed)), std::string::npos) << what;
  }
}

TEST(DistDifferential, ResumeRejectsShardsThatBreakConservation) {
  // Drop one ball from worker 0's shard and commit the rewritten body in
  // the manifest, so the CRC check passes and only the coordinator's
  // conservation check can catch the missing ball.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string base = checkpoint_base("conservation");
  stop_at_round(scn, 2, base, 50);

  const std::string path = sim::shard_path(base, 50, 0);
  ShardState shard = load_shard(path);
  std::size_t back = 0;
  std::size_t bin = 0;
  for (; bin < shard.queues.loads.size(); ++bin) {
    back += shard.queues.loads[bin];
    if (shard.queues.loads[bin] > 0) break;
  }
  ASSERT_LT(bin, shard.queues.loads.size());
  --shard.queues.loads[bin];
  shard.queues.labels.erase(shard.queues.labels.begin() +
                            static_cast<std::ptrdiff_t>(back - 1));
  sim::Manifest manifest = sim::load_manifest(sim::manifest_path(base));
  manifest.shard_crcs[0] = save_shard(shard, path);
  sim::save_manifest(manifest, sim::manifest_path(base));

  WorkerFleet fleet(2);
  try {
    (void)run_distributed(scn, fleet.fds(), resume_options(base));
    ADD_FAILURE() << "a shard missing a ball was resumed";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what())
                  .find("Coordinator: restored shard load breaks ball "
                        "conservation"),
              std::string::npos)
        << error.what();
  }
}

/// Resumes `base` on two workers and requires the run to fail with an
/// error naming `path` and both CRCs.
void expect_uncommitted_file_rejected(const scenario::Scenario& scn,
                                      const std::string& base,
                                      const std::string& path,
                                      std::uint32_t committed,
                                      std::uint32_t rewritten) {
  ASSERT_NE(rewritten, committed);
  WorkerFleet fleet(2);
  try {
    (void)run_distributed(scn, fleet.fds(), resume_options(base));
    ADD_FAILURE() << path << " was resumed though the manifest did not "
                  << "commit it";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(rewritten)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(committed)), std::string::npos) << what;
  }
}

TEST(DistDifferential, ResumeRejectsACoordinatorFileTheManifestDidNotCommit) {
  // A coordinator file with its first engine word raised by one, saved
  // through the checkpoint codec so its envelope is valid: every worker
  // would redraw the same wrong round, so only the manifest's CRC can
  // tell it from the committed file.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string base = checkpoint_base("coord_crc");
  stop_at_round(scn, 2, base, 60);

  const std::string path = sim::coord_path(base, 60);
  core::CappedSnapshot snapshot = sim::load_checkpoint(path);
  ++snapshot.engine_state[0];
  const std::uint32_t rewritten = sim::save_checkpoint(snapshot, path);
  expect_uncommitted_file_rejected(
      scn, base, path,
      sim::load_manifest(sim::manifest_path(base)).coord_crc, rewritten);
}

TEST(DistDifferential, ResumeRejectsAProgressSidecarTheManifestDidNotCommit) {
  // A progress sidecar whose measured pool sum is raised by one: a valid
  // sidecar of the right scenario, seed and round.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string base = checkpoint_base("progress_crc");
  stop_at_round(scn, 2, base, 60);

  const std::string path = sim::progress_path(base, 60);
  scenario::Progress progress = scenario::load_progress(path);
  ++progress.pool_sum;
  const std::uint32_t rewritten = scenario::save_progress(progress, path);
  expect_uncommitted_file_rejected(
      scn, base, path,
      sim::load_manifest(sim::manifest_path(base)).progress_crc, rewritten);
}

TEST(DistDifferential, AVersionOneManifestIsRejected) {
  // Version 1 committed no coordinator or progress CRC; version 2 no
  // record CRC and no kept generation.
  const std::string path = sim::manifest_path(checkpoint_base("manifest_v1"));
  const std::string v2_tail = "coord-crc = 1\nprogress-crc = 2\n";
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    io::sealed::commit_header(path, "iba-dist-manifest", version,
                              "round = 1\nn = 8\nworkers = 1\ndigest = d\n"
                              "seed = 1\nshard-crcs = 7\n" +
                                  (version == 2 ? v2_tail : "") + "end\n",
                              "test");
    try {
      (void)sim::load_manifest(path);
      ADD_FAILURE() << "a version-" << version << " manifest was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("checkpoint manifest: unsupported version " +
                          std::to_string(version) + " (expected 3)"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(DistDifferential, StopResumeAndCompleteLeaveTwoGenerations) {
  // The resumed coordinator's first commit collects the generation the
  // manifest kept, so a stop and resume leak none: a completed run
  // leaves its last cadence generation and its final one.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);
  const std::string base = checkpoint_base("two_generations");
  {
    WorkerFleet fleet(2);
    DistRunOptions options;
    options.checkpoint_base = base;
    options.checkpoint_every = 16;
    options.stop_after = 40;
    options.timeout_ms = 5'000;
    EXPECT_FALSE(run_distributed(scn, fleet.fds(), options).complete);
  }
  DistRunOptions resume = resume_options(base);
  resume.checkpoint_every = 16;
  EXPECT_EQ(distributed_bytes(scn, 2, resume), baseline);

  std::set<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(base).parent_path())) {
    const std::string path = entry.path().string();
    if (path.rfind(base + ".", 0) == 0) left.insert(path);
  }
  std::set<std::string> want = {sim::manifest_path(base)};
  for (const std::uint64_t round : {112u, 120u}) {
    want.insert(sim::coord_path(base, round));
    want.insert(sim::progress_path(base, round));
    want.insert(sim::shard_path(base, round, 0));
    want.insert(sim::shard_path(base, round, 1));
  }
  EXPECT_EQ(left, want);
}

TEST(DistDifferential, ForcedFreshRunCollectsTheReplacedCoordinatorFiles) {
  // A fresh run over a completed run's base replaces it: its first
  // manifest commit removes the completed run's coordinator and progress
  // files (r112, r120). Its shards are the workers' files, and no
  // checkpoint order names them.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string base = checkpoint_base("forced_fresh");
  DistRunOptions options;
  options.checkpoint_base = base;
  options.checkpoint_every = 16;
  options.timeout_ms = 5'000;
  (void)distributed_bytes(scn, 2, options);
  ASSERT_TRUE(std::filesystem::exists(sim::coord_path(base, 120)));
  {
    WorkerFleet fleet(2);
    DistRunOptions fresh = options;
    fresh.stop_after = 40;
    EXPECT_FALSE(run_distributed(scn, fleet.fds(), fresh).complete);
  }

  std::set<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(base).parent_path())) {
    const std::string path = entry.path().string();
    if (path.rfind(base + ".", 0) == 0 &&
        path.find(".coord") != std::string::npos) {
      left.insert(path);
    }
  }
  const std::set<std::string> want = {
      sim::coord_path(base, 32), sim::progress_path(base, 32),
      sim::coord_path(base, 40), sim::progress_path(base, 40)};
  EXPECT_EQ(left, want);
}

TEST(DistDifferential, StopAroundTheBurnInBoundaryResumesToTheSameBytes) {
  // The loop clears the wait statistics at the last burn-in round before
  // that round's checkpoint: a stop exactly there must save the cleared
  // waits, and one on either side must not be affected.
  const scenario::Scenario scn = scenario::parse_scenario(kBank, "bank.scn");
  const std::string baseline = single_process_bytes(scn);
  for (const std::uint64_t stop :
       {scn.burn_in - 1, scn.burn_in, scn.burn_in + 1}) {
    SCOPED_TRACE(stop);
    const std::string base = checkpoint_base("burn_in_boundary");
    stop_at_round(scn, 3, base, stop);
    EXPECT_EQ(distributed_bytes(scn, 3, resume_options(base)), baseline);
  }
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
