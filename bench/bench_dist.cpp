// bench_dist — E28: distributed-engine overhead. Times the coordinator
// round loop against in-process workers over AF_UNIX socketpairs (the
// full wire protocol without process-spawn noise) and reports rounds/s
// and balls/s per worker count, next to the single-process Capped loop
// as the reference row. Verifies first that every variant's counters
// agree with the single-process run — the byte-identity contract in
// miniature — then times the steady state. Machine-readable results go
// to --json (default BENCH_dist.json) with a host stamp, committed
// atomically through io::sealed::commit, and are gated in CI by
// scripts/bench_trend.py against the committed baseline.
//
//   ./bench_dist                  # n = 2^16, workers 1/2/4
//   ./bench_dist --quick true     # CI smoke: n = 2^12
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/capped.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/sealed.hpp"
#include "net/socket.hpp"

namespace {

using namespace iba;

struct Measurement {
  std::string kernel;       ///< "single" or "dist"
  std::uint32_t shards = 1; ///< worker count (1 for the reference row)
  std::uint64_t rounds = 0;
  std::uint64_t balls = 0;  ///< thrown inside the timed window
  double seconds = 0.0;
  std::uint64_t pool_end = 0;       ///< trajectory fingerprint
  std::uint64_t generated_end = 0;  ///< trajectory fingerprint

  [[nodiscard]] double balls_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(balls) / seconds : 0.0;
  }
  [[nodiscard]] double rounds_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(rounds) / seconds : 0.0;
  }
};

core::CappedConfig make_config(std::uint32_t n, std::uint64_t lambda_n,
                               std::uint32_t capacity) {
  core::CappedConfig config;
  config.n = n;
  config.capacity = capacity;
  config.lambda_n = lambda_n;
  return config;
}

Measurement time_single(const core::CappedConfig& config, std::uint64_t seed,
                        std::uint64_t burn_in, std::uint64_t rounds) {
  core::Capped process(config, core::Engine(seed));
  for (std::uint64_t r = 0; r < burn_in; ++r) (void)process.step();
  Measurement m;
  m.kernel = "single";
  m.shards = 1;
  m.rounds = rounds;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) m.balls += process.step().thrown;
  const auto stop = std::chrono::steady_clock::now();
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.pool_end = process.pool_size();
  m.generated_end = process.generated_total();
  return m;
}

Measurement time_dist(const core::CappedConfig& config, std::uint64_t seed,
                      std::uint32_t workers, std::uint64_t burn_in,
                      std::uint64_t rounds) {
  std::vector<net::Socket> coordinator_side;
  std::vector<net::Socket> worker_side;
  for (std::uint32_t i = 0; i < workers; ++i) {
    auto [c, w] = net::socket_pair();
    coordinator_side.push_back(std::move(c));
    worker_side.push_back(std::move(w));
  }
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < workers; ++i) {
    threads.emplace_back([fd = worker_side[i].fd(), i] {
      try {
        dist::Worker(fd, i).run();
      } catch (...) {
      }
    });
  }
  std::vector<int> fds;
  for (const net::Socket& socket : coordinator_side) fds.push_back(socket.fd());

  Measurement m;
  m.kernel = "dist";
  m.shards = workers;
  m.rounds = rounds;
  {
    dist::Coordinator coordinator(config, core::Engine(seed), fds);
    for (std::uint64_t r = 0; r < burn_in; ++r) (void)coordinator.step();
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      m.balls += coordinator.step().thrown;
    }
    const auto stop = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(stop - start).count();
    m.pool_end = coordinator.pool_size();
    m.generated_end = coordinator.generated_total();
    coordinator.shutdown();
  }
  for (net::Socket& socket : coordinator_side) socket.close();
  for (std::thread& thread : threads) thread.join();
  return m;
}

// Scheduling noise on small boxes dwarfs the effect under test; keep
// the best of `reps` full measurements (the repo's min-of-reps timing
// convention), after checking every rep walked the same trajectory.
template <typename TimeOnce>
Measurement min_of_reps(std::uint32_t reps, TimeOnce&& time_once) {
  Measurement best = time_once();
  for (std::uint32_t rep = 1; rep < reps; ++rep) {
    Measurement m = time_once();
    if (m.pool_end != best.pool_end ||
        m.generated_end != best.generated_end) {
      std::fprintf(stderr, "bench_dist: trajectory diverged across reps\n");
      std::exit(1);
    }
    if (m.seconds < best.seconds) best = m;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("bench_dist",
                       "distributed-engine round-loop throughput vs worker "
                       "count (BENCH_dist.json)");
  parser.add_flag("quick", "CI smoke size (n = 2^12)", "false");
  parser.add_flag("n", "bins (0 = size preset)", "0");
  parser.add_flag("lambda", "arrival rate per bin", "0.875");
  parser.add_flag("c", "bin capacity", "2");
  parser.add_flag("rounds", "timed rounds (0 = size preset)", "0");
  parser.add_flag("burn-in", "untimed warm-up rounds", "64");
  parser.add_flag("reps", "measurements per variant (min kept)", "3");
  parser.add_flag("workers", "comma-separated worker counts", "1,2,4");
  parser.add_flag("seed", "master engine seed", "2021");
  parser.add_flag("json", "output path for machine-readable results",
                  "BENCH_dist.json");
  parser.add_flag("json-rows", "rows to emit in the JSON: all | dist",
                  "all");
  if (!parser.parse_or_exit(argc, argv)) return 0;

  const bool quick = parser.get_bool("quick");
  const std::uint32_t n = parser.get_uint("n") > 0
                              ? static_cast<std::uint32_t>(parser.get_uint("n"))
                              : (quick ? 4096u : 65536u);
  const double lambda =
      parser.get_double_range("lambda", 0.0, 1.0, true, false);
  const std::uint32_t capacity =
      static_cast<std::uint32_t>(parser.get_uint_range("c", 1, 0xFFFF));
  const std::uint64_t rounds =
      parser.get_uint("rounds") > 0 ? parser.get_uint("rounds")
                                    : (quick ? 192u : 512u);
  const std::uint64_t burn_in = parser.get_uint("burn-in");
  const std::uint32_t reps =
      static_cast<std::uint32_t>(parser.get_uint_range("reps", 1, 100));
  const std::uint64_t seed = parser.get_uint("seed");
  // The committed CI baseline is generated with --json-rows dist: the
  // dist rows are syscall-bound and stable across hosts, while the
  // compute-bound single-process reference tracks CPU-frequency/steal
  // noise the dist rows do not share, so leave-one-out normalization
  // cannot cancel it. bench_trend gates only rows present in both
  // files, so the fresh side keeps the reference row as context.
  const std::string json_rows = parser.get("json-rows");
  if (json_rows != "all" && json_rows != "dist") {
    io::fail_usage("bench_dist: --json-rows must be 'all' or 'dist'");
  }
  const std::uint64_t lambda_n =
      static_cast<std::uint64_t>(lambda * static_cast<double>(n));

  std::vector<std::uint32_t> worker_counts;
  {
    const std::string list = parser.get("workers");
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string item =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      worker_counts.push_back(
          static_cast<std::uint32_t>(std::stoul(item)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const core::CappedConfig config = make_config(n, lambda_n, capacity);

  std::vector<Measurement> results;
  results.push_back(min_of_reps(
      reps, [&] { return time_single(config, seed, burn_in, rounds); }));
  for (const std::uint32_t workers : worker_counts) {
    results.push_back(min_of_reps(reps, [&] {
      return time_dist(config, seed, workers, burn_in, rounds);
    }));
  }

  // The determinism cross-check: every variant must have walked the
  // exact same trajectory (same generated count and end-of-run pool).
  bool determinism_ok = true;
  for (const Measurement& m : results) {
    determinism_ok &= m.pool_end == results.front().pool_end &&
                      m.generated_end == results.front().generated_end;
  }

  std::printf("dist throughput  n=%u c=%u lambda_n=%llu  %llu rounds%s\n", n,
              capacity, static_cast<unsigned long long>(lambda_n),
              static_cast<unsigned long long>(rounds),
              determinism_ok ? "" : "  TRAJECTORIES DIVERGED");
  for (const Measurement& m : results) {
    std::printf("  %-7s workers=%u  %9.3f s  %10.1f rounds/s  %12.0f balls/s\n",
                m.kernel.c_str(), m.shards, m.seconds, m.rounds_per_sec(),
                m.balls_per_sec());
  }

  const std::string json_path = parser.get("json");
  std::ostringstream out;
  io::JsonWriter json(out);
  json.begin_object();
  json.key("bench").value("dist");
  bench::write_host(json);
  json.key("n").value(static_cast<std::uint64_t>(n));
  json.key("capacity").value(static_cast<std::uint64_t>(capacity));
  json.key("lambda_n").value(lambda_n);
  json.key("burn_in").value(burn_in);
  json.key("rounds").value(rounds);
  json.key("seed").value(seed);
  json.key("quick").value(quick);
  json.key("determinism_ok").value(determinism_ok);
  json.key("results").begin_array();
  for (const Measurement& m : results) {
    if (json_rows == "dist" && m.kernel != "dist") continue;
    json.begin_object();
    json.key("kernel").value(m.kernel);
    json.key("shards").value(static_cast<std::uint64_t>(m.shards));
    json.key("rounds").value(m.rounds);
    json.key("balls").value(m.balls);
    json.key("seconds").value(m.seconds);
    json.key("balls_per_sec").value(m.balls_per_sec());
    json.key("rounds_per_sec").value(m.rounds_per_sec());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  // bench_trend.py reads the record back: a reader never sees a
  // half-written file.
  try {
    io::sealed::commit(json_path, out.str(), "bench_dist");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_dist: %s\n", error.what());
    return 1;
  }

  return determinism_ok ? 0 : 1;
}
