// E19 — waiting-time *decomposition*: how much of a ball's wait is spent
// bouncing in the pool (rejected throws) versus queued inside a bin?
// The theorems bound the total wait; the MODCAPPED coupling treats the
// two phases separately, and the c = 2..3 sweet spot is exactly the
// trade-off between them: c = 1 wastes rounds on pool retries (high
// rejection rate), large c wastes rounds queued behind buffered balls.
//
// This bench traces sampled balls through CAPPED(c) for c = 1..6 and
// reports the exact mean / p99 of total wait, pool time, and bin-queue
// time per c — the figure no aggregate histogram can produce.
//
// Expected shape: pool time falls monotonically in c (more buffer, fewer
// rejections) while bin-queue time grows roughly linearly (FIFO depth);
// their sum is minimized around c = 2..3.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/capped.hpp"
#include "telemetry/ball_trace.hpp"

namespace {

using namespace iba;

struct Decomposition {
  std::uint64_t spans = 0;
  double wait_mean = 0.0, pool_mean = 0.0, binq_mean = 0.0;
  double wait_p99 = 0.0, pool_p99 = 0.0, binq_p99 = 0.0;
};

double exact_p99(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      static_cast<std::size_t>(0.99 * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

Decomposition decompose(const std::deque<telemetry::BallSpan>& spans) {
  Decomposition d;
  std::vector<double> waits, pools, binqs;
  waits.reserve(spans.size());
  pools.reserve(spans.size());
  binqs.reserve(spans.size());
  for (const telemetry::BallSpan& span : spans) {
    waits.push_back(static_cast<double>(span.wait()));
    pools.push_back(static_cast<double>(span.pool_rounds));
    binqs.push_back(static_cast<double>(span.bin_rounds));
    d.wait_mean += waits.back();
    d.pool_mean += pools.back();
    d.binq_mean += binqs.back();
  }
  d.spans = spans.size();
  if (d.spans > 0) {
    const auto count = static_cast<double>(d.spans);
    d.wait_mean /= count;
    d.pool_mean /= count;
    d.binq_mean /= count;
  }
  d.wait_p99 = exact_p99(waits);
  d.pool_p99 = exact_p99(pools);
  d.binq_p99 = exact_p99(binqs);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser("bench_wait_decomposition",
                       "pool-time vs bin-queue-time split of the wait, "
                       "per capacity c");
  bench::add_standard_flags(parser);
  // The default traces enough balls for a stable p99 without holding
  // every ball of the run.
  parser.add_flag("trace-sample",
                  "fraction of balls to trace through their lifecycle "
                  "(deterministic in the seed)",
                  "0.01");
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);
  double sample_rate = 0.0;
  try {
    sample_rate =
        parser.get_double_range("trace-sample", 0.0, 1.0, true, false);
  } catch (const io::UsageError& e) {
    io::fail_usage(e.what());
  }

  const std::uint64_t lambda_n =
      static_cast<std::uint64_t>(options.n) - (options.n >> 6);  // 1−2^−6
  const double lambda =
      static_cast<double>(lambda_n) / static_cast<double>(options.n);

  io::Table table({"c", "spans", "wait mean", "wait p99", "pool mean",
                   "pool p99", "binq mean", "binq p99", "pool share"});
  table.set_title("Waiting-time decomposition (rounds), lambda = 1-2^-6");
  std::vector<std::vector<double>> csv_rows;

  for (std::uint32_t c = 1; c <= 6; ++c) {
    const auto cell = bench::make_cell(options, c, lambda_n);
    telemetry::log_info("cell_start", {{"cell", cell.name},
                                       {"burn_in", cell.burn_in},
                                       {"rounds", cell.rounds},
                                       {"sample_rate", sample_rate}});

    telemetry::BallTraceConfig trace_config;
    trace_config.seed = cell.seed;
    trace_config.sample_rate = sample_rate;
    trace_config.completed_capacity = 1u << 20;
    telemetry::BallTracer tracer(trace_config);

    // Ball tracing attaches to a core::Capped, not to a Scenario, so this
    // runs on run_experiment.
    core::Capped process(bench::capped_cell(options, cell),
                         core::Engine(cell.seed));
    (void)sim::run_experiment(
        process, bench::run_spec(cell),
        {.registry = &bench::bench_registry(), .ball_trace = &tracer});

    const Decomposition d = decompose(tracer.completed());
    if (tracer.dropped() > 0) {
      telemetry::log_warn("spans_dropped",
                          {{"cell", cell.name},
                           {"dropped", tracer.dropped()},
                           {"hint", "raise completed_capacity or lower "
                                    "--trace-sample"}});
    }
    const double pool_share =
        d.wait_mean > 0.0 ? d.pool_mean / d.wait_mean : 0.0;
    table.add_row({std::to_string(c), std::to_string(d.spans),
                   io::Table::format_number(d.wait_mean),
                   io::Table::format_number(d.wait_p99),
                   io::Table::format_number(d.pool_mean),
                   io::Table::format_number(d.pool_p99),
                   io::Table::format_number(d.binq_mean),
                   io::Table::format_number(d.binq_p99),
                   io::Table::format_number(pool_share)});
    csv_rows.push_back({static_cast<double>(c), lambda,
                        static_cast<double>(d.spans), d.wait_mean, d.wait_p99,
                        d.pool_mean, d.pool_p99, d.binq_mean, d.binq_p99,
                        pool_share});
  }

  bench::emit(table, options, "wait_decomposition",
              {"c", "lambda", "spans", "wait_mean", "wait_p99", "pool_mean",
               "pool_p99", "binq_mean", "binq_p99", "pool_share"},
              csv_rows);
  return 0;
}
