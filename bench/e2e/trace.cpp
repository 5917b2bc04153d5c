// bench_e2e_trace — the traced run of the end-to-end benchmark
// (bench/e2e/README.md). It makes the public calls `scenario_run` makes
// (or, with --workers, the calls the `dist_run` coordinator makes), in
// the same order, records one span around each call, and writes the
// spans as JSON lines at exit. Its artifact is byte-identical to the
// untraced binaries' artifact for the same (scenario, seed).
//
//   $ bench_e2e_trace --scenario steady.scn --seed 1 --workload steady
//       --out run.artifact --spans run.jsonl
//   $ bench_e2e_trace ... --workers 3
//     # prints dist_run's "waiting for 3 worker(s) on port P" line; start
//     # `dist_run --role worker --connect 127.0.0.1:P --index i` then
//   $ bench_e2e_trace --host true   # SIMD backend + compiler, one JSON line
//
// Each span is {id, parent, name, workload, round, start_ns, end_ns,
// attrs}; a span's parent is the innermost span open when it began, and
// the root span `trace.main` covers the whole run. After the run, the
// `calib` span times single layers standalone at the run's mean throw
// count ν; run_bench.py subtracts it from the traced wall time.
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>

#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/capped.hpp"
#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "fault/auditor.hpp"
#include "io/cli.hpp"
#include "net/socket.hpp"
#include "rng/bounded.hpp"
#include "rng/simd.hpp"
#include "scenario/arrival.hpp"
#include "scenario/progress.hpp"
#include "scenario/scenario.hpp"
#include "sim/checkpoint.hpp"

namespace {

using namespace iba;

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// In-memory span recorder, written out once at exit.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {
    for (const char ch : workload_) {
      IBA_EXPECT(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                     ch == '-' || ch == '.',
                 "bench_e2e_trace: --workload must be [A-Za-z0-9_.-]+");
    }
  }

  std::size_t begin(const char* name, std::uint64_t round) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(Span{name, parent, round, now_ns(), 0, {}});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
  }
  void attr(std::size_t id, const char* key, double value) {
    spans_[id].attrs.emplace_back(key, value);
  }

  void write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot open " + path);
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const Span& s = spans_[id];
      std::fprintf(out,
                   "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\","
                   "\"workload\":\"%s\",\"round\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"attrs\":{",
                   id, static_cast<long long>(s.parent), s.name,
                   workload_.c_str(), static_cast<unsigned long long>(s.round),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        std::fprintf(out, "%s\"%s\":%.17g", a == 0 ? "" : ",",
                     s.attrs[a].first, s.attrs[a].second);
      }
      std::fputs("}}\n", out);
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t parent;
    std::uint64_t round;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::vector<std::pair<const char*, double>> attrs;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::string workload_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// One span, open for the lifetime of the object.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t round = 0)
      : tracer_(tracer), id_(tracer.begin(name, round)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void attr(const char* key, double value) { tracer_.attr(id_, key, value); }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Per-round counts from RoundMetrics, attached to the step span.
void attach_counts(Scope& span, const core::RoundMetrics& m) {
  span.attr("generated", static_cast<double>(m.generated));
  span.attr("thrown", static_cast<double>(m.thrown));
  span.attr("accepted", static_cast<double>(m.accepted));
  span.attr("shed", static_cast<double>(m.shed));
}

/// Coordinator-side TCP counters summed over the worker sockets.
struct TcpTotals {
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t segs_out = 0;
  std::uint64_t segs_in = 0;
};

TcpTotals tcp_totals(const std::vector<int>& fds) {
  TcpTotals totals;
  for (const int fd : fds) {
    tcp_info info{};
    socklen_t len = sizeof(info);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) != 0 ||
        len < offsetof(tcp_info, tcpi_segs_in) + sizeof(info.tcpi_segs_in)) {
      throw std::runtime_error("bench_e2e_trace: TCP_INFO unavailable");
    }
    totals.bytes_out += info.tcpi_bytes_acked;
    totals.bytes_in += info.tcpi_bytes_received;
    totals.segs_out += info.tcpi_segs_out;
    totals.segs_in += info.tcpi_segs_in;
  }
  return totals;
}

std::uint64_t directory_bytes(const std::filesystem::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

core::CappedConfig config_for(const scenario::Scenario& scn) {
  core::CappedConfig config;
  config.n = scn.n;
  config.capacity = scn.capacity;
  scn.arrival.apply_to(scn.n, config.arrival, config.lambda_n);
  config.pool_limit = scn.pool_limit;
  config.backpressure = scn.backpressure;
  config.backoff_rounds = scn.backoff;
  config.control = scn.control;
  return config;
}

/// What the round loop leaves for the calibration phase.
struct LoopResult {
  core::RoundMetrics last;
  std::uint64_t mean_thrown = 1;  ///< ν, rounded up
};

/// Times the layers a workload may not exercise in its own loop — the
/// RNG fill, the Zipf sampler and an empty parallel_for — standalone at
/// ν draws, so every workload reports every layer.
void calibrate_kernels(Tracer& tracer, const scenario::Scenario& scn,
                       std::uint64_t seed, std::uint64_t nu) {
  std::vector<std::uint32_t> choices(nu);
  core::Engine engine(seed);
  for (int i = 0; i < 7; ++i) {
    Scope span(tracer, "calib.rng.fill");
    rng::fill_bounded(engine, std::span<std::uint32_t>(choices), scn.n);
    span.attr("draws", static_cast<double>(nu));
  }
  const double zipf_s = scn.arrival.skew == scenario::BinSkew::kZipf
                            ? scn.arrival.zipf_s
                            : 0.5;
  scenario::ZipfBinSampler zipf(scn.n, zipf_s);
  for (int i = 0; i < 7; ++i) {
    Scope span(tracer, "calib.zipf.fill");
    zipf.fill(engine, choices);
    span.attr("draws", static_cast<double>(nu));
  }
  concurrency::ThreadPool pool(4);
  for (int i = 0; i < 101; ++i) {
    Scope span(tracer, "calib.parallel_for");
    concurrency::parallel_for(pool, 4, [](std::size_t) {});
  }
}

/// A full deep audit (cadence 1) of `process` at its current round.
void calibrate_audit(Tracer& tracer, const core::Capped& process,
                     const core::RoundMetrics& last) {
  for (int i = 0; i < 3; ++i) {
    fault::InvariantAuditor auditor(1);
    Scope span(tracer, "calib.fault.audit");
    auditor.observe(process, last);
  }
}

/// As the CLIs: render once for the size report, then write (which
/// renders again).
void render_artifact(Tracer& tracer, const artifact::ResultArtifact& result,
                     const std::string& path) {
  Scope span(tracer, "artifact.render");
  const std::string text = artifact::render_artifact(result);
  artifact::write_artifact(result, path);
  span.attr("bytes", static_cast<double>(text.size()));
}

struct Options {
  std::string scenario_path;
  std::uint64_t seed = 1;
  std::string out_path;
  std::string checkpoint_out;
  std::uint32_t workers = 0;
};

int run_single(Tracer& tracer, const Options& options) {
  scenario::Scenario scn;
  {
    Scope span(tracer, "scenario.parse");
    scn = scenario::load_scenario_file(options.scenario_path);
  }
  IBA_EXPECT(scn.fault_schedule.empty() && !scn.control.enabled() &&
                 !scn.record.timeseries,
             "bench_e2e_trace: fault schedules, control and recording are "
             "not traced");
  const std::uint64_t seed = options.seed;
  const std::uint64_t total_rounds = scn.burn_in + scn.rounds;
  const std::uint64_t checkpoint_every =
      options.checkpoint_out.empty() ? 0 : scn.checkpoint_every;
  const std::string digest = scn.digest();

  std::unique_ptr<core::Capped> process;
  std::unique_ptr<core::BinChoiceSampler> sampler;
  {
    Scope span(tracer, "core.construct");
    core::CappedConfig config = config_for(scn);
    config.kernel = scn.kernel;
    config.shards =
        scn.kernel == core::RoundKernel::kBinMajor ? scn.shards : 1;
    process = std::make_unique<core::Capped>(config, core::Engine(seed));
    sampler = scn.arrival.make_sampler(scn.n);
    if (sampler != nullptr) process->set_bin_sampler(sampler.get());
  }
  std::optional<fault::InvariantAuditor> auditor;
  if (scn.expect.audit) auditor.emplace(scn.expect.audit_every);

  scenario::Progress progress;
  progress.digest = digest;
  progress.seed = seed;
  const auto save_state = [&] {
    Scope span(tracer, "sim.checkpoint");
    sim::Checkpoint ckpt;
    {
      Scope snap_span(tracer, "core.snapshot");
      ckpt.snapshot = process->snapshot();
    }
    sim::save_checkpoint(ckpt, options.checkpoint_out);
    scenario::Progress saved = progress;
    if (auditor.has_value()) {
      saved.audit_rounds += auditor->rounds_audited();
      saved.audit_violations += auditor->violation_count();
    }
    scenario::save_progress(saved, options.checkpoint_out + ".progress");
  };

  LoopResult loop;
  {
    Scope rounds(tracer, "rounds");
    const std::int64_t cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    std::uint64_t thrown = 0;
    for (std::uint64_t round = 1; round <= total_rounds; ++round) {
      Scope round_span(tracer, "round", round);
      if (scn.arrival.time_varying()) {
        process->set_lambda_n(scn.arrival.rate_at(round, scn.n));
      }
      {
        Scope span(tracer, "core.step", round);
        const std::int64_t thread0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        loop.last = process->step();
        if (round > scn.burn_in) accumulate_progress(progress, loop.last);
        span.attr("cpu_ns", static_cast<double>(
                                clock_ns(CLOCK_THREAD_CPUTIME_ID) - thread0));
        attach_counts(span, loop.last);
      }
      thrown += loop.last.thrown;
      if (auditor.has_value()) {
        Scope span(tracer, "fault.audit", round);
        auditor->observe(*process, loop.last);
      }
      progress.rounds_done = round;
      if (round == scn.burn_in) process->reset_wait_stats();
      if (checkpoint_every > 0 && round % checkpoint_every == 0 &&
          round != total_rounds) {
        save_state();
      }
    }
    rounds.attr("process_cpu_ns",
                static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0));
    loop.mean_thrown = (thrown + total_rounds - 1) / total_rounds;
  }

  artifact::ResultArtifact result;
  bool ok = true;
  {
    Scope span(tracer, "artifact.assemble");
    core::CappedSnapshot snapshot;
    {
      Scope snap_span(tracer, "core.snapshot");
      snapshot = process->snapshot();
    }
    scenario::RunTotals totals;
    totals.generated_total = process->generated_total();
    totals.deleted_total = process->deleted_total();
    totals.shed_total = process->shed_total();
    totals.deferred_end = process->deferred_total();
    totals.waits = snapshot.waits;
    totals.wait_p50 = process->waits().quantile_upper_bound(0.5);
    totals.wait_p99 = process->waits().quantile_upper_bound(0.99);
    scenario::fill_artifact(result, scn, digest, seed, progress, totals);
    if (auditor.has_value()) {
      result.audited = true;
      result.audit_rounds = auditor->rounds_audited();
      result.audit_violations = auditor->violation_count();
      ok = result.audit_violations == 0;
    }
    scenario::evaluate_expectations(scn, result);
    ok = ok && result.all_checks_pass();
  }
  if (!options.checkpoint_out.empty()) save_state();
  render_artifact(tracer, result, options.out_path);

  {
    Scope calib(tracer, "calib");
    calibrate_kernels(tracer, scn, seed, loop.mean_thrown);
    calibrate_audit(tracer, *process, loop.last);
    for (int i = 0; i < 3; ++i) {
      Scope span(tracer, "calib.core.snapshot");
      const core::CappedSnapshot snapshot = process->snapshot();
    }
    const std::filesystem::path dir = options.out_path + ".calib";
    std::filesystem::create_directories(dir);
    for (int i = 0; i < 2; ++i) {
      Scope span(tracer, "calib.sim.checkpoint");
      sim::Checkpoint ckpt;
      ckpt.snapshot = process->snapshot();
      sim::save_checkpoint(ckpt, (dir / "calib.ckpt").string());
      scenario::save_progress(progress, (dir / "calib.ckpt.progress").string());
      span.attr("bytes", static_cast<double>(directory_bytes(dir)));
    }
  }
  {
    Scope span(tracer, "core.destroy");
    process.reset();
    sampler.reset();
  }
  return ok ? 0 : 3;
}

int run_coordinator(Tracer& tracer, const Options& options) {
  scenario::Scenario scn;
  {
    Scope span(tracer, "scenario.parse");
    scn = scenario::load_scenario_file(options.scenario_path);
  }
  const std::uint64_t seed = options.seed;
  const std::uint64_t total_rounds = scn.burn_in + scn.rounds;
  const std::string digest = scn.digest();
  dist::CoordinatorOptions copts;

  std::vector<net::Socket> accepted;
  std::vector<int> fds;
  {
    Scope span(tracer, "dist.connect");
    const net::Socket listener = net::listen_tcp("127.0.0.1", 0);
    std::fprintf(stderr,
                 "[dist] coordinator: %s (digest %s), waiting for %u "
                 "worker(s) on port %u\n",
                 scn.name.c_str(), digest.c_str(), options.workers,
                 net::local_port(listener));
    std::fflush(stderr);
    for (std::uint32_t i = 0; i < options.workers; ++i) {
      net::Socket client = net::accept_client(listener, copts.timeout_ms);
      if (!client.valid()) {
        std::fprintf(stderr, "[dist] FAIL only %u of %u workers connected\n",
                     i, options.workers);
        return 4;
      }
      fds.push_back(client.fd());
      accepted.push_back(std::move(client));
    }
  }

  std::unique_ptr<dist::Coordinator> coordinator;
  std::unique_ptr<core::BinChoiceSampler> sampler;
  {
    Scope span(tracer, "dist.construct");
    coordinator = std::make_unique<dist::Coordinator>(
        config_for(scn), core::Engine(seed), fds, copts);
    sampler = scn.arrival.make_sampler(scn.n);
    if (sampler != nullptr) coordinator->set_bin_sampler(sampler.get());
  }

  scenario::Progress progress;
  progress.digest = digest;
  progress.seed = seed;
  LoopResult loop;
  {
    Scope rounds(tracer, "rounds");
    const std::int64_t cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    std::uint64_t thrown = 0;
    TcpTotals before = tcp_totals(fds);
    for (std::uint64_t round = 1; round <= total_rounds; ++round) {
      Scope round_span(tracer, "round", round);
      if (scn.arrival.time_varying()) {
        coordinator->set_lambda_n(scn.arrival.rate_at(round, scn.n));
      }
      {
        Scope span(tracer, "dist.step", round);
        const std::int64_t thread0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        loop.last = coordinator->step();
        if (round > scn.burn_in) accumulate_progress(progress, loop.last);
        span.attr("cpu_ns", static_cast<double>(
                                clock_ns(CLOCK_THREAD_CPUTIME_ID) - thread0));
        attach_counts(span, loop.last);
      }
      thrown += loop.last.thrown;
      progress.rounds_done = round;
      if (round == scn.burn_in) coordinator->reset_wait_stats();
      const TcpTotals after = tcp_totals(fds);
      round_span.attr("bytes_out",
                      static_cast<double>(after.bytes_out - before.bytes_out));
      round_span.attr("bytes_in",
                      static_cast<double>(after.bytes_in - before.bytes_in));
      round_span.attr("segs", static_cast<double>(
                                  (after.segs_out - before.segs_out) +
                                  (after.segs_in - before.segs_in)));
      before = after;
    }
    rounds.attr("process_cpu_ns",
                static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0));
    loop.mean_thrown = (thrown + total_rounds - 1) / total_rounds;
  }

  artifact::ResultArtifact result;
  {
    Scope span(tracer, "artifact.assemble");
    scenario::RunTotals totals;
    totals.generated_total = coordinator->generated_total();
    totals.deleted_total = coordinator->deleted_total();
    totals.shed_total = coordinator->shed_total();
    totals.deferred_end = coordinator->deferred_total();
    totals.waits = coordinator->wait_state();
    totals.wait_p50 = coordinator->wait_quantile(0.5);
    totals.wait_p99 = coordinator->wait_quantile(0.99);
    scenario::fill_artifact(result, scn, digest, seed, progress, totals);
    scenario::evaluate_expectations(scn, result);
  }
  render_artifact(tracer, result, options.out_path);

  {
    // The workers stay connected through calibration: the distributed
    // checkpoint needs them to write their shards.
    Scope calib(tracer, "calib");
    calibrate_kernels(tracer, scn, seed, loop.mean_thrown);
    {
      // The bins live in the workers, so the audit is timed on a fresh
      // process of the same geometry (round 0: the deep scan still
      // visits all n bins).
      const core::Capped fresh(config_for(scn), core::Engine(seed));
      calibrate_audit(tracer, fresh, core::RoundMetrics{});
    }
    for (int i = 0; i < 3; ++i) {
      Scope span(tracer, "calib.core.snapshot");
      const core::CappedSnapshot snapshot = coordinator->snapshot();
    }
    // Two saves at one round: a third would garbage-collect its own
    // generation (the gc victim is the generation before last).
    const std::filesystem::path dir = options.out_path + ".calib";
    std::filesystem::create_directories(dir);
    const std::string base = (dir / "calib").string();
    for (int i = 0; i < 2; ++i) {
      Scope span(tracer, "calib.sim.checkpoint");
      scenario::save_progress(
          progress, dist::coord_path(base, coordinator->round()) + ".progress");
      coordinator->save_checkpoint(base, digest, seed);
      span.attr("bytes", static_cast<double>(directory_bytes(dir)));
    }
  }
  {
    Scope span(tracer, "dist.shutdown");
    coordinator->shutdown();
  }
  {
    Scope span(tracer, "core.destroy");
    coordinator.reset();
    sampler.reset();
  }
  return result.all_checks_pass() ? 0 : 3;
}

int run(const io::ArgParser& parser) {
  Options options;
  options.scenario_path = parser.get("scenario");
  options.seed = parser.get_uint("seed");
  options.out_path = parser.get("out");
  options.checkpoint_out = parser.get("checkpoint-out");
  options.workers =
      static_cast<std::uint32_t>(parser.get_uint_range("workers", 0, 64));
  const std::string spans_path = parser.get("spans");
  if (options.scenario_path.empty() || options.out_path.empty() ||
      spans_path.empty()) {
    throw io::UsageError(
        "bench_e2e_trace: --scenario, --out and --spans are required");
  }
  IBA_EXPECT(options.workers == 0 || options.checkpoint_out.empty(),
             "bench_e2e_trace: --checkpoint-out is single-process only");

  Tracer tracer(parser.get("workload"));
  int code = 0;
  {
    Scope root(tracer, "trace.main");
    code = options.workers > 0 ? run_coordinator(tracer, options)
                               : run_single(tracer, options);
  }
  tracer.write_jsonl(spans_path);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("bench_e2e_trace",
                       "traced replay of scenario_run / the dist_run "
                       "coordinator for the end-to-end benchmark");
  parser.add_flag("scenario", "scenario file to run", "");
  parser.add_flag("seed", "run seed (as scenario_run --seed)", "1");
  parser.add_flag("workload", "workload name stamped on every span",
                  "unnamed");
  parser.add_flag("out", "artifact path", "");
  parser.add_flag("spans", "span JSON-lines output path", "");
  parser.add_flag("checkpoint-out",
                  "checkpoint path, as scenario_run --checkpoint-out", "");
  parser.add_flag("workers",
                  "0 = single process; > 0 = coordinator of this many "
                  "dist_run workers",
                  "0");
  parser.add_flag("host", "print SIMD backend and compiler, then exit",
                  "false");
  try {
    if (!parser.parse_or_exit(argc, argv)) return 0;
    if (parser.get_bool("host")) {
#if defined(__clang__)
      const char* compiler = "clang " __clang_version__;
#else
      const char* compiler = "gcc " __VERSION__;
#endif
      std::printf("{\"simd_backend\":\"%s\",\"compiler\":\"%s\"}\n",
                  rng::simd_backend_name(rng::active_simd_backend()),
                  compiler);
      return 0;
    }
    return run(parser);
  } catch (const scenario::ScenarioError& error) {
    io::fail_usage(error.what());
  } catch (const iba::ContractViolation& error) {
    io::fail_usage(error.what());
  } catch (const dist::WorkerLost& error) {
    std::fprintf(stderr, "[dist] FAIL %s\n", error.what());
    return 4;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
