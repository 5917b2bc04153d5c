// E23 — fault-recovery and robustness overhead (BENCH_fault.json).
//
// Two questions, one binary:
//  * What do the robustness features cost? The same trajectory is timed
//    bare, with the invariant auditor at cadence 1 and 64, and with
//    periodic checkpointing — the audited/checkpointed variants replay
//    the identical round sequence, so the delta is pure overhead. The
//    budget (docs/ROBUSTNESS.md) is <= 5% for the audit-64 and
//    checkpoint configurations.
//  * How fast does CAPPED recover from a mass crash? Half the bins
//    crash with state loss mid-run; the bench reports the number of
//    rounds until the pool re-enters its pre-crash band after repair.
//
//   ./bench_fault_recovery                 # full size: n = 2^15
//   ./bench_fault_recovery --quick true    # CI smoke: n = 2^12

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/capped.hpp"
#include "fault/auditor.hpp"
#include "fault/fault_plan.hpp"
#include "fault/schedule.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "sim/checkpoint.hpp"
#include "telemetry/log.hpp"

namespace {

using iba::core::Capped;
using iba::core::CappedConfig;
using iba::core::Engine;
using iba::fault::FaultPlan;
using iba::fault::InvariantAuditor;

struct OverheadRow {
  std::string variant;
  double seconds = 0.0;
  double overhead_pct = 0.0;  ///< vs the bare run
  std::uint64_t deep_audits = 0;
  std::uint64_t checkpoints = 0;
};

CappedConfig make_config(std::uint32_t n, std::uint32_t capacity,
                         std::uint64_t lambda_n) {
  CappedConfig config;
  config.n = n;
  config.capacity = capacity;
  config.lambda_n = lambda_n;
  return config;
}

/// Times `rounds` steady-state rounds with optional auditing and
/// checkpointing. All variants replay the identical trajectory.
OverheadRow time_variant(const CappedConfig& config, std::uint64_t seed,
                         std::uint64_t burn_in, std::uint64_t rounds,
                         std::uint64_t audit_cadence,
                         std::uint64_t checkpoint_every,
                         const std::string& checkpoint_path,
                         bool* audit_ok) {
  Capped process(config, Engine(seed));
  for (std::uint64_t r = 0; r < burn_in; ++r) (void)process.step();

  OverheadRow row;
  InvariantAuditor auditor(audit_cadence == 0 ? 1 : audit_cadence);
  std::uint64_t since_checkpoint = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto m = process.step();
    if (audit_cadence > 0) auditor.observe(process, m);
    if (checkpoint_every > 0 && ++since_checkpoint >= checkpoint_every) {
      since_checkpoint = 0;
      iba::sim::save_checkpoint(process.snapshot(), checkpoint_path);
      ++row.checkpoints;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  row.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  row.deep_audits = audit_cadence > 0 ? auditor.deep_audits() : 0;
  if (audit_cadence > 0 && !auditor.ok()) {
    *audit_ok = false;
    iba::telemetry::log_error(
        "bench_audit_violation",
        {{"variant", std::string_view("overhead")},
         {"violations", auditor.violation_count()}});
  }
  return row;
}

struct RecoveryResult {
  std::uint64_t crash_round = 0;
  std::uint64_t repair_round = 0;
  std::uint64_t recovered_round = 0;  ///< 0 = never within horizon
  std::uint64_t requeued = 0;         ///< balls dumped by the crash
  double pool_band = 0.0;             ///< pre-crash pool ceiling
  std::uint64_t pool_peak = 0;        ///< worst pool during the outage

  [[nodiscard]] std::int64_t recovery_rounds() const {
    return recovered_round == 0
               ? -1
               : static_cast<std::int64_t>(recovered_round - repair_round);
  }
};

/// Crashes half the bins (state loss) mid-run and measures how many
/// rounds after repair the pool needs to re-enter its pre-crash band
/// (10% above the largest pool seen in the observation window).
RecoveryResult measure_recovery(const CappedConfig& config,
                                std::uint64_t seed, std::uint64_t burn_in,
                                std::uint64_t down, std::uint64_t horizon,
                                bool* audit_ok) {
  RecoveryResult result;
  result.crash_round = burn_in + 100;
  result.repair_round = result.crash_round + down;

  const std::string schedule =
      "crash@" + std::to_string(result.crash_round) +
      ":bins=0-" + std::to_string(config.n / 2 - 1) +
      ",down=" + std::to_string(down);
  FaultPlan plan(iba::fault::parse_schedule(schedule), config.n,
                 config.capacity, seed + 1);
  Capped process(config, Engine(seed));
  process.set_fault_plan(&plan);
  InvariantAuditor auditor(/*cadence=*/16);

  std::uint64_t pre_crash_max = 0;
  for (std::uint64_t round = 1; round <= result.repair_round + horizon;
       ++round) {
    const auto m = process.step();
    auditor.observe(process, m);
    if (round > burn_in && round < result.crash_round) {
      pre_crash_max = std::max(pre_crash_max, m.pool_size);
    }
    if (round == result.crash_round) {
      result.requeued = m.requeued;
      result.pool_band =
          1.10 * static_cast<double>(std::max<std::uint64_t>(pre_crash_max, 1));
    }
    if (round >= result.crash_round) {
      result.pool_peak = std::max(result.pool_peak, m.pool_size);
    }
    if (round >= result.repair_round && result.recovered_round == 0 &&
        static_cast<double>(m.pool_size) <= result.pool_band) {
      result.recovered_round = round;
      break;
    }
  }
  if (!auditor.ok()) {
    *audit_ok = false;
    iba::telemetry::log_error(
        "bench_audit_violation",
        {{"variant", std::string_view("recovery")},
         {"violations", auditor.violation_count()}});
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  iba::io::ArgParser parser(
      "bench_fault_recovery",
      "audit/checkpoint overhead and mass-crash recovery (BENCH_fault.json)");
  parser.add_flag("n", "number of bins", "32768");
  parser.add_flag("lambda", "arrival rate per bin", "0.95");
  parser.add_flag("capacity", "bin buffer size c", "2");
  parser.add_flag("burnin", "untimed warm-up rounds", "500");
  parser.add_flag("rounds", "timed rounds per overhead variant", "1000");
  parser.add_flag("seed", "master seed", "2021");
  parser.add_flag("down", "mass-crash downtime, rounds", "50");
  parser.add_flag("checkpoint-every",
                  "checkpoint cadence of the checkpointed variant", "250");
  parser.add_flag("quick",
                  "CI smoke mode: n = 4096, 200 burn-in, 150 timed rounds",
                  "false");
  parser.add_flag("json", "output path for machine-readable results",
                  "BENCH_fault.json");
  if (!parser.parse_or_exit(argc, argv)) return 2;

  std::uint32_t n;
  double lambda;
  std::uint32_t capacity;
  std::uint64_t burn_in;
  std::uint64_t rounds;
  std::uint64_t seed;
  std::uint64_t down;
  std::uint64_t checkpoint_every;
  bool quick;
  std::string json_path;
  try {
    n = static_cast<std::uint32_t>(parser.get_uint_range("n", 2, 1u << 28));
    lambda = parser.get_double_range("lambda", 0.0, 1.0, true, true);
    capacity =
        static_cast<std::uint32_t>(parser.get_uint_range("capacity", 1, 65535));
    burn_in = parser.get_uint("burnin");
    rounds = parser.get_uint_range("rounds", 1, UINT64_MAX);
    seed = parser.get_uint("seed");
    down = parser.get_uint_range("down", 1, UINT64_MAX);
    checkpoint_every =
        parser.get_uint_range("checkpoint-every", 1, UINT64_MAX);
    quick = parser.get_bool("quick");
    json_path = parser.get("json");
  } catch (const iba::io::UsageError& e) {
    iba::io::fail_usage(e.what());
  }
  if (quick) {
    if (!parser.provided("n")) n = 1u << 12;
    if (!parser.provided("burnin")) burn_in = 200;
    if (!parser.provided("rounds")) rounds = 150;
  }
  const std::uint64_t lambda_n = static_cast<std::uint64_t>(
      std::llround(lambda * static_cast<double>(n)));
  const CappedConfig config = make_config(n, capacity, lambda_n);

  const std::string checkpoint_path =
      (std::filesystem::temp_directory_path() / "bench_fault_ckpt").string();
  bool audit_ok = true;

  // -- overhead ------------------------------------------------------
  struct Spec {
    const char* name;
    std::uint64_t audit;
    std::uint64_t checkpoint;
  } const specs[] = {
      {"bare", 0, 0},
      {"audit-1", 1, 0},
      {"audit-64", 64, 0},
      {"checkpoint", 0, checkpoint_every},
  };
  // fsync latency and scheduler jitter swing a single sample by tens of
  // percent; each variant replays the identical trajectory, so the
  // minimum over a few repetitions is the interference-free cost.
  const int reps = quick ? 1 : 3;
  std::vector<OverheadRow> overhead;
  for (const Spec& spec : specs) {
    OverheadRow row{};
    for (int rep = 0; rep < reps; ++rep) {
      OverheadRow sample = time_variant(config, seed, burn_in, rounds,
                                        spec.audit, spec.checkpoint,
                                        checkpoint_path, &audit_ok);
      if (rep == 0 || sample.seconds < row.seconds) row = sample;
    }
    row.variant = spec.name;
    overhead.push_back(row);
  }
  std::error_code ec;
  std::filesystem::remove(checkpoint_path, ec);
  const double bare = overhead.front().seconds;
  for (OverheadRow& row : overhead) {
    row.overhead_pct =
        bare > 0.0 ? (row.seconds / bare - 1.0) * 100.0 : 0.0;
  }

  // -- recovery ------------------------------------------------------
  const std::uint64_t horizon = 20000;
  const RecoveryResult recovery =
      measure_recovery(config, seed, burn_in, down, horizon, &audit_ok);

  std::printf("fault recovery  n=%u c=%u lambda_n=%llu  %llu timed rounds\n",
              n, capacity, static_cast<unsigned long long>(lambda_n),
              static_cast<unsigned long long>(rounds));
  for (const OverheadRow& row : overhead) {
    std::printf("  %-11s %9.3f s  %+6.2f%%  (deep audits %llu, checkpoints "
                "%llu)\n",
                row.variant.c_str(), row.seconds, row.overhead_pct,
                static_cast<unsigned long long>(row.deep_audits),
                static_cast<unsigned long long>(row.checkpoints));
  }
  std::printf(
      "  mass crash: %llu balls requeued at round %llu, repair at %llu, "
      "pool peak %llu, band %.0f, recovery %lld rounds\n",
      static_cast<unsigned long long>(recovery.requeued),
      static_cast<unsigned long long>(recovery.crash_round),
      static_cast<unsigned long long>(recovery.repair_round),
      static_cast<unsigned long long>(recovery.pool_peak),
      recovery.pool_band,
      static_cast<long long>(recovery.recovery_rounds()));

  // Budget check: audit-64 and checkpoint variants must stay <= 5%.
  // Quick/CI runs are far too short for per-checkpoint fixed costs to
  // amortize (and too noisy for any verdict), so the budget is only
  // evaluated at full size; quick runs report the raw measurements and
  // flag the verdict as not evaluated.
  const double budget_pct = 5.0;
  const bool budget_evaluated = !quick;
  bool within_budget = true;
  for (const OverheadRow& row : overhead) {
    if (budget_evaluated &&
        (row.variant == "audit-64" || row.variant == "checkpoint") &&
        row.overhead_pct > budget_pct) {
      within_budget = false;
      iba::telemetry::log_warn("overhead_budget_exceeded",
                               {{"variant", std::string_view(row.variant)},
                                {"overhead_pct", row.overhead_pct},
                                {"budget_pct", budget_pct}});
    }
  }

  std::ostringstream out;
  iba::io::JsonWriter json(out);
  json.begin_object();
  json.key("bench").value("fault_recovery");
  iba::bench::write_host(json);
  json.key("n").value(static_cast<std::uint64_t>(n));
  json.key("capacity").value(static_cast<std::uint64_t>(capacity));
  json.key("lambda_n").value(lambda_n);
  json.key("burn_in").value(burn_in);
  json.key("rounds").value(rounds);
  json.key("seed").value(seed);
  json.key("quick").value(quick);
  json.key("audit_ok").value(audit_ok);
  json.key("overhead_budget_pct").value(budget_pct);
  json.key("budget_evaluated").value(budget_evaluated);
  json.key("within_budget").value(within_budget);
  json.key("overhead").begin_array();
  for (const OverheadRow& row : overhead) {
    json.begin_object();
    json.key("variant").value(row.variant);
    json.key("seconds").value(row.seconds);
    json.key("overhead_pct").value(row.overhead_pct);
    json.key("deep_audits").value(row.deep_audits);
    json.key("checkpoints").value(row.checkpoints);
    json.end_object();
  }
  json.end_array();
  json.key("recovery").begin_object();
  json.key("crash_round").value(recovery.crash_round);
  json.key("repair_round").value(recovery.repair_round);
  json.key("requeued").value(recovery.requeued);
  json.key("pool_band").value(recovery.pool_band);
  json.key("pool_peak").value(recovery.pool_peak);
  json.key("recovery_rounds")
      .value(static_cast<double>(recovery.recovery_rounds()));
  json.end_object();
  json.end_object();
  out << "\n";
  if (!iba::bench::commit_json(json_path, out.str(), "bench_fault_recovery")) {
    return 1;
  }
  return audit_ok ? 0 : 1;
}
