// E11 — engineering microbenchmarks (google-benchmark): per-round and
// per-ball cost of every process, the RNG substrate, and the two design
// ablations called out in DESIGN.md §7 (age-bucketed pool vs explicit
// balls; flat bin table ops).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/capped.hpp"
#include "core/greedy.hpp"
#include "core/modcapped.hpp"
#include "core/oracle.hpp"
#include "queueing/aged_pool.hpp"
#include "queueing/bin_table.hpp"
#include "rng/alias.hpp"
#include "stats/histogram.hpp"
#include "stats/p2_quantile.hpp"
#include "io/cli.hpp"
#include "rng/bounded.hpp"
#include "rng/philox.hpp"
#include "rng/simd.hpp"
#include "rng/xoshiro256.hpp"
#include "telemetry/export.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/round_trace.hpp"

namespace {

using namespace iba;

void BM_Xoshiro256pp(benchmark::State& state) {
  core::Engine engine(1);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += engine();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Xoshiro256pp);

void BM_Philox4x32(benchmark::State& state) {
  rng::Philox4x32 engine(1);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += engine();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Philox4x32);

void BM_BoundedDraw(benchmark::State& state) {
  core::Engine engine(1);
  const auto range = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) sink += rng::bounded(engine, range);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BoundedDraw)->Arg(1 << 10)->Arg(1 << 15)->Arg((1 << 20) + 7);

// The batched bounded-draw backends head-to-head on the kernel's real
// workload shape (one draw per thrown ball, awkward non-power-of-two
// range). Arg is the batch length; range(1) selects the backend.
void BM_FillBounded(benchmark::State& state) {
  const auto backend = static_cast<rng::SimdBackend>(state.range(1));
  if (backend == rng::SimdBackend::kAvx2 && !rng::avx2_supported()) {
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  rng::set_simd_backend(backend);
  core::Engine engine(9);
  std::vector<std::uint32_t> out(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t range = 10'000'000;  // n = 10^7, rejection path live
  std::uint64_t draws = 0;
  for (auto _ : state) {
    rng::fill_bounded(engine, std::span<std::uint32_t>(out), range);
    draws += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  rng::reset_simd_backend();
  state.counters["draws/s"] = benchmark::Counter(
      static_cast<double>(draws), benchmark::Counter::kIsRate);
  state.SetLabel(backend == rng::SimdBackend::kAvx2 ? "avx2" : "scalar");
}
BENCHMARK(BM_FillBounded)
    ->Args({1 << 16, static_cast<int>(rng::SimdBackend::kScalar)})
    ->Args({1 << 16, static_cast<int>(rng::SimdBackend::kAvx2)})
    ->Args({1 << 20, static_cast<int>(rng::SimdBackend::kScalar)})
    ->Args({1 << 20, static_cast<int>(rng::SimdBackend::kAvx2)});

// Pass-A scatter serial vs parallel: the fused sweep's accept phase
// (partition + acceptance replay) inline at shards = 1, on the shard
// pool above. Phase timers isolate the accept cost from throw/delete.
void BM_CappedScatter(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  core::CappedConfig config;
  config.n = 1 << 16;
  config.capacity = 2;
  config.lambda_n = config.n - config.n / 16;  // λ = 15/16
  config.kernel = core::RoundKernel::kBinMajor;
  config.shards = shards;
  core::Capped process(config, core::Engine(11));
  for (int i = 0; i < 300; ++i) (void)process.step();

  telemetry::PhaseTimers timers;
  process.set_phase_timers(&timers);
  std::uint64_t balls = 0;
  for (auto _ : state) balls += process.step().thrown;
  process.set_phase_timers(nullptr);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(balls), benchmark::Counter::kIsRate);
  state.counters["accept_ns/ball"] =
      timers.ns_per_ball(telemetry::Phase::kAccept);
  state.SetLabel(shards == 1 ? "serial" : "parallel");
}
BENCHMARK(BM_CappedScatter)->Arg(1)->Arg(2)->Arg(4);

// First touch of fresh arena memory, the cost a run pays once for its
// bin state: allocate from a fresh Arena, write one byte per 4 KiB page,
// free. Arg is the block size; 1 MiB stays on the heap, 64 MiB is a
// huge-page-advised mapping (see core/arena.hpp).
void BM_ArenaFirstTouch(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::Arena arena;
    auto* block = static_cast<unsigned char*>(arena.allocate(bytes));
    for (std::size_t i = 0; i < bytes; i += 4096) block[i] = 1;
    benchmark::DoNotOptimize(block);
    benchmark::ClobberMemory();
    arena.deallocate(block);
  }
  state.counters["MiB/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(bytes) / (1 << 20),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ArenaFirstTouch)->Arg(1 << 20)->Arg(64 << 20);

void BM_BinTablePushPop(benchmark::State& state) {
  queueing::BinTable bins(1 << 10, 4);
  std::uint32_t bin = 0;
  for (auto _ : state) {
    bins.push(bin, 1);
    benchmark::DoNotOptimize(bins.pop_front(bin));
    bin = (bin + 1) & ((1 << 10) - 1);
  }
}
BENCHMARK(BM_BinTablePushPop);

// Alias draws at k = 2^13 (cache-resident) and k = 2^20 (the zipf_ckpt
// table: 16 MiB of slots, so every draw's slot load misses L2).
// BM_AliasFill is the batched path WeightedBinSampler uses, over rounds
// of 2^16 balls, in ns/draw, at k = 2^16 (1 MiB of slots, on the heap)
// and k = 2^20 (a huge-page mapping of the table's arena).
rng::AliasTable bench_alias_table(std::size_t k) {
  std::vector<double> weights(k);
  core::Engine seed_engine(5);
  for (auto& w : weights) w = 1.0 + rng::uniform01(seed_engine) * 3.0;
  return rng::AliasTable(weights);
}

void BM_AliasSample(benchmark::State& state) {
  const rng::AliasTable table =
      bench_alias_table(static_cast<std::size_t>(state.range(0)));
  core::Engine engine(6);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += table.sample(engine);
  benchmark::DoNotOptimize(sink);
  state.counters["draws/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AliasSample)->Arg(1 << 13)->Arg(1 << 20);

void BM_AliasFill(benchmark::State& state) {
  const rng::AliasTable table =
      bench_alias_table(static_cast<std::size_t>(state.range(0)));
  core::Engine engine(6);
  std::vector<std::uint32_t> out(1u << 16);
  std::uint64_t draws = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    table.fill(engine, std::span<std::uint32_t>(out));
    draws += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns/draw"] = elapsed.count() / static_cast<double>(draws);
}
BENCHMARK(BM_AliasFill)->Arg(1 << 16)->Arg(1 << 20);

void BM_P2QuantileAdd(benchmark::State& state) {
  stats::P2Quantile p99(0.99);
  core::Engine engine(7);
  for (auto _ : state) p99.add(rng::uniform01(engine));
  benchmark::DoNotOptimize(p99.value());
}
BENCHMARK(BM_P2QuantileAdd);

void BM_Log2HistogramAdd(benchmark::State& state) {
  stats::Log2Histogram histogram;
  core::Engine engine(8);
  for (auto _ : state) histogram.add(engine() >> 48);
  benchmark::DoNotOptimize(histogram.total());
}
BENCHMARK(BM_Log2HistogramAdd);

void BM_AgedPoolCycle(benchmark::State& state) {
  queueing::AgedPool pool;
  std::uint64_t label = 0;
  for (auto _ : state) {
    ++label;
    pool.add(label, 64);
    if (pool.total() > 4096) pool.clear();
    benchmark::DoNotOptimize(pool.total());
  }
}
BENCHMARK(BM_AgedPoolCycle);

// Steady-state per-round cost of CAPPED(c, λ). Counters report ns/ball.
void BM_CappedRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto c = static_cast<std::uint32_t>(state.range(1));
  core::CappedConfig config;
  config.n = n;
  config.capacity = c;
  config.lambda_n = n - n / 16;  // λ = 15/16
  core::Capped process(config, core::Engine(7));
  for (int i = 0; i < 2000; ++i) (void)process.step();  // reach steady state

  std::uint64_t balls = 0;
  for (auto _ : state) {
    const auto m = process.step();
    balls += m.thrown;
  }
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(balls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CappedRound)
    ->Args({1 << 10, 1})
    ->Args({1 << 13, 1})
    ->Args({1 << 13, 3})
    ->Args({1 << 15, 3});

// Same workload with every telemetry instrument attached (registry
// counters + phase timers + round trace). Comparing balls/s against
// BM_CappedRound (nothing attached) gives the telemetry overhead.
void BM_CappedRoundTelemetry(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::CappedConfig config;
  config.n = n;
  config.capacity = 3;
  config.lambda_n = n - n / 16;
  core::Capped process(config, core::Engine(7));
  for (int i = 0; i < 2000; ++i) (void)process.step();

  telemetry::Registry registry;
  telemetry::PhaseTimers timers;
  telemetry::RoundTrace trace(1024);
  process.set_phase_timers(&timers);
  auto& rounds = registry.counter("rounds_total");
  auto& thrown = registry.counter("balls_thrown_total");
  auto& pool_hist = registry.histogram("pool_size_rounds");

  std::uint64_t balls = 0;
  for (auto _ : state) {
    const auto m = process.step();
    rounds.inc();
    thrown.inc(m.thrown);
    pool_hist.observe(m.pool_size);
    (void)trace.try_push({m, 0});
    telemetry::RoundEvent drained;
    (void)trace.try_pop(drained);
    balls += m.thrown;
  }
  process.set_phase_timers(nullptr);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(balls), benchmark::Counter::kIsRate);
  state.counters["throw_ns/ball"] =
      timers.ns_per_ball(telemetry::Phase::kThrow);
  state.counters["accept_ns/ball"] =
      timers.ns_per_ball(telemetry::Phase::kAccept);
}
BENCHMARK(BM_CappedRoundTelemetry)->Arg(1 << 13);

void BM_TelemetryCounterInc(benchmark::State& state) {
  telemetry::Registry registry;
  auto& counter = registry.counter("bench");
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  telemetry::Registry registry;
  auto& histogram = registry.histogram("bench");
  std::uint64_t v = 0;
  for (auto _ : state) histogram.observe(v++ & 0xFFFF);
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_RoundTracePushPop(benchmark::State& state) {
  telemetry::RoundTrace trace(1024);
  telemetry::RoundEvent event{};
  for (auto _ : state) {
    (void)trace.try_push(event);
    (void)trace.try_pop(event);
  }
  benchmark::DoNotOptimize(trace.dropped());
}
BENCHMARK(BM_RoundTracePushPop);

// Ablation: the explicit-ball oracle on the same workload (small n only —
// it is O(m log m) per round).
void BM_OracleCappedRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::CappedConfig config;
  config.n = n;
  config.capacity = 1;
  config.lambda_n = n - n / 16;
  core::OracleCapped process(config, core::Engine(7));
  for (int i = 0; i < 500; ++i) (void)process.step();

  std::uint64_t balls = 0;
  for (auto _ : state) {
    const auto m = process.step();
    balls += m.thrown;
  }
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(balls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OracleCappedRound)->Arg(1 << 10);

void BM_ModCappedRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::ModCappedConfig config;
  config.n = n;
  config.capacity = 3;
  config.lambda_n = n - n / 16;
  core::ModCapped process(config, core::Engine(7));
  for (int i = 0; i < 200; ++i) (void)process.step();

  std::uint64_t balls = 0;
  for (auto _ : state) {
    const auto m = process.step();
    balls += m.thrown;
  }
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(balls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModCappedRound)->Arg(1 << 10)->Arg(1 << 13);

void BM_BatchGreedyRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto d = static_cast<std::uint32_t>(state.range(1));
  core::BatchGreedyConfig config;
  config.n = n;
  config.d = d;
  config.lambda_n = n / 2;  // moderate λ keeps queues (and memory) bounded
  core::BatchGreedy process(config, core::Engine(7));
  for (int i = 0; i < 500; ++i) (void)process.step();

  std::uint64_t balls = 0;
  for (auto _ : state) {
    const auto m = process.step();
    balls += m.thrown;
  }
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(balls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchGreedyRound)->Args({1 << 13, 1})->Args({1 << 13, 2});

/// ns per bounded draw of `backend` over repeated length-2^20 batches
/// (0 when the backend is unavailable here).
double time_fill_bounded_ns(rng::SimdBackend backend) {
  if (backend == rng::SimdBackend::kAvx2 && !rng::avx2_supported()) {
    return 0.0;
  }
  rng::set_simd_backend(backend);
  core::Engine engine(9);
  std::vector<std::uint32_t> out(1u << 20);
  const std::uint64_t range = 10'000'000;
  rng::fill_bounded(engine, std::span<std::uint32_t>(out), range);  // warm
  const int reps = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    rng::fill_bounded(engine, std::span<std::uint32_t>(out), range);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  rng::reset_simd_backend();
  benchmark::DoNotOptimize(out.data());
  return std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
             .count() *
         1e9 / (static_cast<double>(reps) * static_cast<double>(out.size()));
}

/// Accept-phase ns/ball of the fused sweep at `shards` (inline at 1, on
/// the shard pool above).
double time_scatter_accept_ns(std::uint32_t shards) {
  core::CappedConfig config;
  config.n = 1 << 16;
  config.capacity = 2;
  config.lambda_n = config.n - config.n / 16;
  config.kernel = core::RoundKernel::kBinMajor;
  config.shards = shards;
  core::Capped process(config, core::Engine(11));
  for (int i = 0; i < 300; ++i) (void)process.step();
  telemetry::PhaseTimers timers;
  process.set_phase_timers(&timers);
  for (int i = 0; i < 200; ++i) (void)process.step();
  process.set_phase_timers(nullptr);
  return timers.ns_per_ball(telemetry::Phase::kAccept);
}

// Runs the canonical CAPPED workload with phase timers attached and
// writes the per-phase ns/ball numbers as a telemetry snapshot — the
// machine-readable counterpart of the BM_Capped* console output — plus
// the fill_bounded scalar-vs-SIMD and scatter serial-vs-parallel rows.
void write_phase_json(const std::string& path) {
  core::CappedConfig config;
  config.n = 1 << 13;
  config.capacity = 3;
  config.lambda_n = config.n - config.n / 16;  // λ = 15/16
  core::Capped process(config, core::Engine(7));
  for (int i = 0; i < 2000; ++i) (void)process.step();

  telemetry::PhaseTimers timers;
  process.set_phase_timers(&timers);
  for (int i = 0; i < 500; ++i) (void)process.step();
  process.set_phase_timers(nullptr);

  telemetry::Registry registry;
  registry.gauge("bench_micro_n").set(config.n);
  registry.gauge("bench_micro_capacity").set(config.capacity);
  registry.gauge("bench_micro_lambda_n").set(config.lambda_n);
  registry.gauge("fill_bounded_scalar_ns_per_draw")
      .set(time_fill_bounded_ns(rng::SimdBackend::kScalar));
  registry.gauge("fill_bounded_avx2_ns_per_draw")
      .set(time_fill_bounded_ns(rng::SimdBackend::kAvx2));
  registry.gauge("scatter_serial_accept_ns_per_ball")
      .set(time_scatter_accept_ns(1));
  registry.gauge("scatter_parallel_accept_ns_per_ball")
      .set(time_scatter_accept_ns(4));
  telemetry::record_phase_timers(registry, timers);
  if (telemetry::write_snapshot_file(registry, path)) {
    std::printf("phase timings written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
}

}  // namespace

// Custom main: accepts --json <file> / --json=<file> and --force [true]
// alongside the standard google-benchmark flags (which would reject an
// unknown flag). --json goes through the shared overwrite guard.
int main(int argc, char** argv) {
  std::string json_path;
  bool force = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--force") == 0) {
      force = true;
      // Optional explicit value, matching ArgParser's bool style.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "true") == 0 ||
                           std::strcmp(argv[i + 1], "false") == 0)) {
        force = std::strcmp(argv[++i], "true") == 0;
      }
    } else if (std::strncmp(argv[i], "--force=", 8) == 0) {
      force = std::strcmp(argv[i] + 8, "true") == 0;
    } else {
      args.push_back(argv[i]);
    }
  }
  iba::io::guard_overwrite(json_path, force, "--json");
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_phase_json(json_path);
  return 0;
}
