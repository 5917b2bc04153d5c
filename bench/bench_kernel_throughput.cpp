// Round-kernel throughput: scalar ball-at-a-time loop vs the bin-major
// counting-sort kernel (core/capped.cpp), optionally sharded. Verifies
// that every variant produces the identical trajectory, then times the
// steady-state round loop and reports balls/second. Machine-readable
// results go to --json (default BENCH_kernel.json); docs/PERFORMANCE.md
// records representative numbers.
//
//   ./bench_kernel_throughput                 # full size: n = 10^6
//   ./bench_kernel_throughput --quick true    # CI smoke: n = 2^16
//   ./bench_kernel_throughput --shards 4      # also time a sharded run
//
// Shard-scaling mode sweeps the bin-major kernel over shard counts and
// writes a second JSON (default BENCH_scale.json) gated by
// scripts/bench_trend.py exactly like the kernel baseline:
//
//   ./bench_kernel_throughput --large true --shards-sweep 1,2,4,8
//                                             # n = 10^7 scaling curve
//   ./bench_kernel_throughput --huge true --shards-sweep 4
//                                             # n = 10^8 smoke
//
// Every timed variant must allocate nothing inside its timed rounds
// (the process arena's allocation count stays flat); the bench exits 1
// otherwise. Both JSON files carry a host stamp and are committed
// atomically through io::sealed::commit.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/capped.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/sealed.hpp"
#include "telemetry/log.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/timeseries.hpp"

namespace {

using iba::core::Capped;
using iba::core::CappedConfig;
using iba::core::RoundKernel;
using iba::core::RoundMetrics;

struct Measurement {
  RoundKernel kernel = RoundKernel::kScalar;
  std::uint32_t shards = 1;
  std::uint64_t rounds = 0;
  std::uint64_t balls = 0;  ///< thrown balls inside the timed window
  double seconds = 0.0;
  double throw_ns_per_ball = 0.0;
  double accept_ns_per_ball = 0.0;
  double delete_ns_per_ball = 0.0;

  /// True when the timed window allocated nothing from the process
  /// arena — the steady-state requirement.
  bool allocations_steady = true;

  [[nodiscard]] double balls_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(balls) / seconds : 0.0;
  }
  [[nodiscard]] double ns_per_ball() const {
    return balls > 0 ? seconds * 1e9 / static_cast<double>(balls) : 0.0;
  }
  [[nodiscard]] double seconds_per_round() const {
    return rounds > 0 ? seconds / static_cast<double>(rounds) : 0.0;
  }
};

CappedConfig make_config(std::uint32_t n, std::uint32_t capacity,
                         std::uint64_t lambda_n, RoundKernel kernel,
                         std::uint32_t shards) {
  CappedConfig config;
  config.n = n;
  config.capacity = capacity;
  config.lambda_n = lambda_n;
  config.kernel = kernel;
  config.shards = shards;
  return config;
}

Measurement time_variant(const CappedConfig& config, std::uint64_t seed,
                         std::uint64_t burn_in, std::uint64_t rounds,
                         bool record = false) {
  Capped process(config, iba::core::Engine(seed));
  for (std::uint64_t r = 0; r < burn_in; ++r) (void)process.step();
  Measurement out;
  out.kernel = config.kernel;
  out.shards = config.shards;
  out.rounds = rounds;
  iba::telemetry::PhaseTimers timers;
  process.set_phase_timers(&timers);
  iba::telemetry::TimeSeries series;  // cadence 1, every round sampled
  if (record) process.set_time_series(&series);
  // Allocation count entering the timed window: any growth during it
  // means a round still allocates at steady state (the ArenaBuffers'
  // geometric headroom is supposed to absorb the ±√ν throw jitter).
  const std::uint64_t allocs_before = process.arena().allocation_count();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    out.balls += process.step().thrown;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  out.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  out.allocations_steady =
      process.arena().allocation_count() == allocs_before;
  out.throw_ns_per_ball = timers.ns_per_ball(iba::telemetry::Phase::kThrow);
  out.accept_ns_per_ball = timers.ns_per_ball(iba::telemetry::Phase::kAccept);
  out.delete_ns_per_ball = timers.ns_per_ball(iba::telemetry::Phase::kDelete);
  return out;
}

/// Runs every variant over a small instance and demands byte-identical
/// round metrics and end-state before any timing is trusted.
bool check_determinism(std::uint32_t capacity, std::uint64_t seed,
                       const std::vector<std::uint32_t>& shard_counts) {
  const std::uint32_t n = 4096;
  const std::uint64_t lambda_n = 3891;  // λ ≈ 0.95
  const std::uint64_t rounds = 200;

  std::vector<Capped> variants;
  variants.emplace_back(
      make_config(n, capacity, lambda_n, RoundKernel::kScalar, 1),
      iba::core::Engine(seed));
  variants.emplace_back(
      make_config(n, capacity, lambda_n, RoundKernel::kBinMajor, 1),
      iba::core::Engine(seed));
  for (const std::uint32_t shards : shard_counts) {
    if (shards <= 1) continue;
    variants.emplace_back(
        make_config(n, capacity, lambda_n, RoundKernel::kBinMajor, shards),
        iba::core::Engine(seed));
  }

  for (std::uint64_t r = 0; r < rounds; ++r) {
    const RoundMetrics reference = variants.front().step();
    for (std::size_t v = 1; v < variants.size(); ++v) {
      const RoundMetrics m = variants[v].step();
      if (m.thrown != reference.thrown || m.accepted != reference.accepted ||
          m.deleted != reference.deleted ||
          m.pool_size != reference.pool_size ||
          m.total_load != reference.total_load ||
          m.max_load != reference.max_load ||
          m.empty_bins != reference.empty_bins ||
          m.wait_sum != reference.wait_sum ||
          m.wait_max != reference.wait_max) {
        iba::telemetry::log_error(
            "determinism_mismatch",
            {{"round", r}, {"variant", static_cast<std::uint64_t>(v)}});
        return false;
      }
    }
  }
  const auto reference = variants.front().snapshot();
  for (std::size_t v = 1; v < variants.size(); ++v) {
    const auto snap = variants[v].snapshot();
    if (snap.engine_state != reference.engine_state ||
        snap.bin_queues != reference.bin_queues ||
        snap.pool.size() != reference.pool.size()) {
      iba::telemetry::log_error("determinism_end_state_mismatch",
                                {{"variant", static_cast<std::uint64_t>(v)}});
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  iba::io::ArgParser parser(
      "bench_kernel_throughput",
      "scalar vs bin-major round-kernel throughput (BENCH_kernel.json)");
  parser.add_flag("n", "number of bins", "1000000");
  parser.add_flag("lambda", "arrival rate per bin", "0.95");
  parser.add_flag("capacity", "bin buffer size c", "2");
  parser.add_flag("burnin", "untimed warm-up rounds", "150");
  parser.add_flag("rounds", "timed rounds per variant", "100");
  parser.add_flag("seed", "master seed", "2021");
  parser.add_flag("shards",
                  "also time the bin-major kernel with this many shards "
                  "(1 = skip the sharded variant)",
                  "1");
  parser.add_flag("quick",
                  "CI smoke mode: n = 65536, 50 burn-in, 30 timed rounds",
                  "false");
  parser.add_flag("large",
                  "large-n mode: n = 10^7, 10 burn-in, 20 timed rounds",
                  "false");
  parser.add_flag("huge",
                  "very-large-n smoke: n = 10^8, 3 burn-in, 4 timed "
                  "rounds",
                  "false");
  parser.add_flag("shards-sweep",
                  "comma-separated shard counts (e.g. 1,2,4,8): also "
                  "sweep the bin-major kernel over these and write the "
                  "scaling curve to --scale-json",
                  "");
  parser.add_flag("scale-json",
                  "output path for the --shards-sweep scaling results",
                  "BENCH_scale.json");
  parser.add_flag("control",
                  "none|static: also time each variant with the inert "
                  "static control plane attached and report its overhead "
                  "(budget: < 2%)",
                  "none");
  parser.add_flag("record",
                  "also time each variant with a cadence-1 time series "
                  "attached and report the recorder's overhead "
                  "(budget: < 3%)",
                  "false");
  parser.add_flag("json", "output path for machine-readable results",
                  "BENCH_kernel.json");
  if (!parser.parse_or_exit(argc, argv)) return 2;

  std::uint32_t n = static_cast<std::uint32_t>(parser.get_uint("n"));
  const double lambda = parser.get_double("lambda");
  const std::uint32_t capacity =
      static_cast<std::uint32_t>(parser.get_uint("capacity"));
  std::uint64_t burn_in = parser.get_uint("burnin");
  std::uint64_t rounds = parser.get_uint("rounds");
  const std::uint64_t seed = parser.get_uint("seed");
  const std::uint32_t shards =
      static_cast<std::uint32_t>(parser.get_uint("shards"));
  const bool quick = parser.get_bool("quick");
  const bool large = parser.get_bool("large");
  const bool huge = parser.get_bool("huge");
  if (quick + large + huge > 1) {
    iba::io::fail_usage(
        "bench_kernel_throughput: --quick, --large and --huge are "
        "mutually exclusive size presets");
  }
  const std::string sweep_spec = parser.get("shards-sweep");
  std::vector<std::uint32_t> sweep;
  for (std::size_t pos = 0; pos < sweep_spec.size();) {
    const std::size_t comma = sweep_spec.find(',', pos);
    const std::string item = sweep_spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    try {
      const unsigned long value = std::stoul(item);
      if (value == 0 || value > 256) throw std::out_of_range(item);
      sweep.push_back(static_cast<std::uint32_t>(value));
    } catch (const std::exception&) {
      iba::io::fail_usage("bench_kernel_throughput: --shards-sweep "
                          "expects comma-separated counts in [1, 256] "
                          "(got '" + item + "')");
    }
    pos = comma == std::string::npos ? sweep_spec.size() : comma + 1;
  }
  const std::string scale_json_path = parser.get("scale-json");
  const std::string control_mode = parser.get("control");
  if (control_mode != "none" && control_mode != "static") {
    iba::io::fail_usage("bench_kernel_throughput: --control must be "
                        "'none' or 'static' (got '" +
                        control_mode + "')");
  }
  const bool control_static = control_mode == "static";
  const bool record = parser.get_bool("record");
  const std::string json_path = parser.get("json");
  if (quick) {
    if (!parser.provided("n")) n = 1u << 16;
    if (!parser.provided("burnin")) burn_in = 50;
    if (!parser.provided("rounds")) rounds = 30;
  }
  if (large) {
    if (!parser.provided("n")) n = 10'000'000;
    if (!parser.provided("burnin")) burn_in = 10;
    if (!parser.provided("rounds")) rounds = 20;
  }
  if (huge) {
    // Burn-in must cover the rounds where the grow-only scratch buffers
    // still chase the ±√ν throw jitter; 3 is enough for the geometric
    // headroom to win, after which a steady round allocates nothing.
    if (!parser.provided("n")) n = 100'000'000;
    if (!parser.provided("burnin")) burn_in = 3;
    if (!parser.provided("rounds")) rounds = 4;
  }
  const std::uint64_t lambda_n = static_cast<std::uint64_t>(
      std::llround(lambda * static_cast<double>(n)));

  std::vector<std::uint32_t> determinism_shards = {2, shards};
  determinism_shards.insert(determinism_shards.end(), sweep.begin(),
                            sweep.end());
  const bool determinism_ok =
      check_determinism(capacity, seed, determinism_shards);
  iba::telemetry::log_info("determinism_check",
                           {{"ok", determinism_ok}});
  if (!determinism_ok) return 1;

  std::vector<Measurement> results;
  results.push_back(time_variant(
      make_config(n, capacity, lambda_n, RoundKernel::kScalar, 1),
      seed, burn_in, rounds));
  results.push_back(time_variant(
      make_config(n, capacity, lambda_n, RoundKernel::kBinMajor, 1),
      seed, burn_in, rounds));
  if (shards > 1) {
    results.push_back(time_variant(
        make_config(n, capacity, lambda_n, RoundKernel::kBinMajor, shards),
        seed, burn_in, rounds));
  }

  // Shard-scaling sweep: the bin-major kernel only (the scalar kernel
  // cannot shard), same instance, one row per shard count.
  std::vector<Measurement> scale_results;
  for (const std::uint32_t sweep_shards : sweep) {
    scale_results.push_back(time_variant(
        make_config(n, capacity, lambda_n, RoundKernel::kBinMajor,
                    sweep_shards),
        seed, burn_in, rounds));
  }

  // Inert-control overhead: the same variants with --control static
  // attached run their estimators every round but never change anything,
  // so the trajectory is identical and the delta is the control plane's
  // full fixed cost. Budget (docs/CONTROL.md): < 2%.
  std::vector<Measurement> control_results;
  std::vector<double> control_overhead_pct;
  if (control_static) {
    // Scheduler jitter swings a single sample by several percent — far
    // more than the effect being measured — so base and controlled runs
    // are interleaved and the minimum over a few repetitions is compared.
    const int reps = quick ? 2 : 3;
    for (const Measurement& variant : results) {
      const CappedConfig base_config =
          make_config(n, capacity, lambda_n, variant.kernel, variant.shards);
      CappedConfig control_config = base_config;
      control_config.control.policy = iba::control::Policy::kStatic;
      control_config.control.c_max = std::max(capacity, 16u);
      Measurement best_base;
      Measurement best_control;
      for (int rep = 0; rep < reps; ++rep) {
        const Measurement base_sample =
            time_variant(base_config, seed, burn_in, rounds);
        const Measurement control_sample =
            time_variant(control_config, seed, burn_in, rounds);
        if (rep == 0 || base_sample.seconds < best_base.seconds) {
          best_base = base_sample;
        }
        if (rep == 0 || control_sample.seconds < best_control.seconds) {
          best_control = control_sample;
        }
      }
      control_results.push_back(best_control);
      control_overhead_pct.push_back(
          best_base.seconds > 0.0
              ? (best_control.seconds / best_base.seconds - 1.0) * 100.0
              : 0.0);
    }
  }

  // Recorder overhead: the same variants with a cadence-1 TimeSeries
  // attached sample every round into the delta rings. The trajectory is
  // untouched (sampling is read-only), so the delta is the recorder's
  // full fixed cost. Budget (docs/TELEMETRY.md): < 3%. Interleaved
  // min-of-reps for the same jitter reason as the control measurement.
  std::vector<Measurement> record_results;
  std::vector<double> record_overhead_pct;
  if (record) {
    // The effect is one observe() per million-ball round — far below
    // this container's scheduler jitter — so it takes more repetitions
    // than the control measurement for the minima to stabilize.
    const int reps = quick ? 2 : 5;
    for (const Measurement& variant : results) {
      const CappedConfig config =
          make_config(n, capacity, lambda_n, variant.kernel, variant.shards);
      Measurement best_base;
      Measurement best_record;
      for (int rep = 0; rep < reps; ++rep) {
        const Measurement base_sample =
            time_variant(config, seed, burn_in, rounds);
        const Measurement record_sample =
            time_variant(config, seed, burn_in, rounds, /*record=*/true);
        if (rep == 0 || base_sample.seconds < best_base.seconds) {
          best_base = base_sample;
        }
        if (rep == 0 || record_sample.seconds < best_record.seconds) {
          best_record = record_sample;
        }
      }
      record_results.push_back(best_record);
      record_overhead_pct.push_back(
          best_base.seconds > 0.0
              ? (best_record.seconds / best_base.seconds - 1.0) * 100.0
              : 0.0);
    }
  }

  const double speedup = results[0].seconds > 0.0 && results[1].seconds > 0.0
                             ? results[1].balls_per_sec() /
                                   results[0].balls_per_sec()
                             : 0.0;

  std::printf("kernel throughput  n=%u c=%u lambda_n=%llu  %llu rounds\n", n,
              capacity, static_cast<unsigned long long>(lambda_n),
              static_cast<unsigned long long>(rounds));
  for (const Measurement& m : results) {
    std::printf(
        "  %-9s shards=%u  %9.3f s  %12.0f balls/s  %6.2f ns/ball  "
        "(throw %.2f / accept %.2f / delete %.2f ns/ball)\n",
        std::string(iba::core::to_string(m.kernel)).c_str(), m.shards,
        m.seconds, m.balls_per_sec(), m.ns_per_ball(), m.throw_ns_per_ball,
        m.accept_ns_per_ball, m.delete_ns_per_ball);
  }
  std::printf("  bin-major vs scalar speedup: %.2fx\n", speedup);
  for (const Measurement& m : scale_results) {
    std::printf(
        "  sweep     shards=%u  %9.3f s  %12.0f balls/s  %6.2f ns/ball  "
        "%8.2f ms/round%s\n",
        m.shards, m.seconds, m.balls_per_sec(), m.ns_per_ball(),
        m.seconds_per_round() * 1e3,
        m.allocations_steady ? "" : "  ALLOCATED");
  }
  double scale_speedup = 0.0;
  if (scale_results.size() > 1) {
    const Measurement& first = scale_results.front();
    const Measurement& last = scale_results.back();
    if (first.seconds > 0.0 && last.seconds > 0.0) {
      scale_speedup = last.balls_per_sec() / first.balls_per_sec();
    }
    std::printf("  shards=%u vs shards=%u speedup: %.2fx\n", last.shards,
                first.shards, scale_speedup);
  }

  // Steady-state allocation gate: no timed round may allocate from the
  // process arena (growth here means a round still churns memory at
  // steady state).
  bool allocations_ok = true;
  for (const Measurement& m : results) allocations_ok &= m.allocations_steady;
  for (const Measurement& m : scale_results) {
    allocations_ok &= m.allocations_steady;
  }
  if (!allocations_ok) {
    iba::telemetry::log_error("allocated_in_timed_rounds", {});
  }
  for (std::size_t i = 0; i < control_results.size(); ++i) {
    std::printf("  +static control  %-9s shards=%u  %9.3f s  %+6.2f%%\n",
                std::string(iba::core::to_string(control_results[i].kernel))
                    .c_str(),
                control_results[i].shards, control_results[i].seconds,
                control_overhead_pct[i]);
  }
  for (std::size_t i = 0; i < record_results.size(); ++i) {
    std::printf("  +recording       %-9s shards=%u  %9.3f s  %+6.2f%%\n",
                std::string(iba::core::to_string(record_results[i].kernel))
                    .c_str(),
                record_results[i].shards, record_results[i].seconds,
                record_overhead_pct[i]);
  }

  // bench_trend.py reads these records back: commit each atomically so
  // a reader never sees a half-written file.
  const auto commit_json = [](const std::string& path,
                              const std::string& text) {
    try {
      iba::io::sealed::commit(path, text, "bench_kernel_throughput");
    } catch (const std::exception& error) {
      iba::telemetry::log_error("json_commit_failed",
                                {{"path", path}, {"error", error.what()}});
      return false;
    }
    iba::telemetry::log_info("bench_json_written", {{"path", path}});
    return true;
  };
  std::ostringstream out;
  iba::io::JsonWriter json(out);
  json.begin_object();
  json.key("bench").value("kernel_throughput");
  iba::bench::write_host(json);
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
    json.begin_object();
    json.key("kernel").value(iba::core::to_string(m.kernel));
    json.key("shards").value(static_cast<std::uint64_t>(m.shards));
    json.key("rounds").value(m.rounds);
    json.key("balls").value(m.balls);
    json.key("seconds").value(m.seconds);
    json.key("balls_per_sec").value(m.balls_per_sec());
    json.key("ns_per_ball").value(m.ns_per_ball());
    json.key("throw_ns_per_ball").value(m.throw_ns_per_ball);
    json.key("accept_ns_per_ball").value(m.accept_ns_per_ball);
    json.key("delete_ns_per_ball").value(m.delete_ns_per_ball);
    json.end_object();
  }
  json.end_array();
  json.key("speedup_bin_major_vs_scalar").value(speedup);
  if (control_static) {
    json.key("control_overhead").begin_array();
    for (std::size_t i = 0; i < control_results.size(); ++i) {
      json.begin_object();
      json.key("kernel").value(iba::core::to_string(control_results[i].kernel));
      json.key("shards")
          .value(static_cast<std::uint64_t>(control_results[i].shards));
      json.key("seconds").value(control_results[i].seconds);
      json.key("overhead_pct").value(control_overhead_pct[i]);
      json.end_object();
    }
    json.end_array();
  }
  if (record) {
    json.key("record_overhead").begin_array();
    for (std::size_t i = 0; i < record_results.size(); ++i) {
      json.begin_object();
      json.key("kernel").value(iba::core::to_string(record_results[i].kernel));
      json.key("shards")
          .value(static_cast<std::uint64_t>(record_results[i].shards));
      json.key("seconds").value(record_results[i].seconds);
      json.key("overhead_pct").value(record_overhead_pct[i]);
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  out << "\n";
  if (!commit_json(json_path, out.str())) return 1;

  // The scaling curve gets its own artifact in the same results[] shape
  // bench_trend.py keys on, so the committed BENCH_scale.json baseline
  // is gated exactly like the kernel baseline.
  if (!sweep.empty()) {
    std::ostringstream scale_out;
    iba::io::JsonWriter scale(scale_out);
    scale.begin_object();
    scale.key("bench").value("kernel_scale");
    iba::bench::write_host(scale);
    scale.key("n").value(static_cast<std::uint64_t>(n));
    scale.key("capacity").value(static_cast<std::uint64_t>(capacity));
    scale.key("lambda_n").value(lambda_n);
    scale.key("burn_in").value(burn_in);
    scale.key("rounds").value(rounds);
    scale.key("seed").value(seed);
    scale.key("determinism_ok").value(determinism_ok);
    scale.key("results").begin_array();
    for (const Measurement& m : scale_results) {
      scale.begin_object();
      scale.key("kernel").value(iba::core::to_string(m.kernel));
      scale.key("shards").value(static_cast<std::uint64_t>(m.shards));
      scale.key("rounds").value(m.rounds);
      scale.key("balls").value(m.balls);
      scale.key("seconds").value(m.seconds);
      scale.key("balls_per_sec").value(m.balls_per_sec());
      scale.key("ns_per_ball").value(m.ns_per_ball());
      scale.key("seconds_per_round").value(m.seconds_per_round());
      scale.key("throw_ns_per_ball").value(m.throw_ns_per_ball);
      scale.key("accept_ns_per_ball").value(m.accept_ns_per_ball);
      scale.key("delete_ns_per_ball").value(m.delete_ns_per_ball);
      scale.end_object();
    }
    scale.end_array();
    scale.key("speedup_max_vs_min_shards").value(scale_speedup);
    scale.end_object();
    scale_out << "\n";
    if (!commit_json(scale_json_path, scale_out.str())) return 1;
  }
  return allocations_ok ? 0 : 1;
}
