// Tests of the fault subsystem: the schedule grammar (parse, round-trip,
// diagnostics), FaultPlan semantics (crash/repair timing, state loss vs
// retention, degradation, stragglers, crash-fullest, determinism), and
// the InvariantAuditor (clean on real runs, alarms on fabricated
// violations).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/capped.hpp"
#include "fault/auditor.hpp"
#include "fault/fault_plan.hpp"
#include "fault/schedule.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace iba;
using core::Capped;
using core::CappedConfig;
using core::Engine;
using fault::Event;
using fault::EventKind;
using fault::FaultPlan;
using fault::FaultSchedule;
using fault::InvariantAuditor;
using fault::parse_schedule;
using fault::ScheduleError;

CappedConfig small_config() {
  CappedConfig config;
  config.n = 64;
  config.capacity = 2;
  config.lambda_n = 56;
  return config;
}

std::uint64_t load_of(const Capped& p) {
  return p.total_load();
}

// ---------------------------------------------------------------- grammar

TEST(Schedule, ParsesEveryKind) {
  const auto s = parse_schedule(
      "crash@10:bins=0-4+9,down=5;"
      "crash-fullest@20:k=3,down=2-8,retain;"
      "degrade@5:bins=1,cap=1,for=10;"
      "straggle:bins=2-3,period=4,phase=1,from=7,for=100;"
      "random-crash:p=0.25,down=6,from=2,until=50;"
      "rolling@30:width=8,gap=10,count=3,down=12,retain");
  ASSERT_EQ(s.events.size(), 6u);
  EXPECT_EQ(s.events[0].kind, EventKind::kCrash);
  EXPECT_EQ(s.events[0].at, 10u);
  EXPECT_EQ(s.events[0].down_lo, 5u);
  EXPECT_EQ(s.events[0].down_hi, 5u);
  EXPECT_FALSE(s.events[0].retain);
  EXPECT_EQ(s.events[1].kind, EventKind::kCrashFullest);
  EXPECT_EQ(s.events[1].k, 3u);
  EXPECT_EQ(s.events[1].down_lo, 2u);
  EXPECT_EQ(s.events[1].down_hi, 8u);
  EXPECT_TRUE(s.events[1].retain);
  EXPECT_EQ(s.events[2].kind, EventKind::kDegrade);
  EXPECT_EQ(s.events[2].cap, 1u);
  EXPECT_EQ(s.events[2].duration, 10u);
  EXPECT_EQ(s.events[3].kind, EventKind::kStraggle);
  EXPECT_EQ(s.events[3].period, 4u);
  EXPECT_EQ(s.events[3].phase, 1u);
  EXPECT_EQ(s.events[4].kind, EventKind::kRandomCrash);
  EXPECT_DOUBLE_EQ(s.events[4].p, 0.25);
  EXPECT_EQ(s.events[4].until, 50u);
  EXPECT_EQ(s.events[5].kind, EventKind::kRolling);
  EXPECT_EQ(s.events[5].width, 8u);
  EXPECT_EQ(s.events[5].count, 3u);
}

TEST(Schedule, RoundTripsThroughToString) {
  const char* text =
      "crash@10:bins=0-4+9,down=5;"
      "degrade@5:bins=1,cap=1,for=10;"
      "random-crash:p=0.25,down=6,from=2,until=50";
  const auto parsed = parse_schedule(text);
  const auto rendered = fault::to_string(parsed);
  const auto reparsed = parse_schedule(rendered);
  EXPECT_EQ(fault::to_string(reparsed), rendered);
  ASSERT_EQ(reparsed.events.size(), parsed.events.size());
  EXPECT_EQ(reparsed.events[0].bins.ranges, parsed.events[0].bins.ranges);
}

TEST(Schedule, DiagnosticsNameTheProblem) {
  const auto message = [](const char* text) {
    try {
      (void)parse_schedule(text);
    } catch (const ScheduleError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_NE(message("crash@5:down=5").find("bins"), std::string::npos);
  EXPECT_NE(message("crash:bins=1,down=5").find("@"), std::string::npos)
      << message("crash:bins=1,down=5");
  EXPECT_NE(message("crash@5:bins=9-3,down=5").find("range"),
            std::string::npos);
  EXPECT_NE(message("random-crash:p=1.5,down=5").find("p"),
            std::string::npos);
  EXPECT_NE(message("crash@5:bins=1,down=5,zap=2").find("zap"),
            std::string::npos);
  EXPECT_NE(message("frobnicate@5:bins=1").find("frobnicate"),
            std::string::npos);
  EXPECT_THROW((void)parse_schedule("straggle:bins=1,period=0"),
               ScheduleError);
  EXPECT_THROW((void)parse_schedule("crash@0:bins=1,down=5"), ScheduleError);
}

TEST(Schedule, PlanCtorValidatesAgainstGeometry) {
  EXPECT_THROW(FaultPlan(parse_schedule("crash@5:bins=64,down=5"), 64, 2, 1),
               ScheduleError);
  EXPECT_THROW(
      FaultPlan(parse_schedule("degrade@5:bins=1,cap=9,for=5"), 64, 2, 1),
      ScheduleError);
  EXPECT_THROW(
      FaultPlan(parse_schedule("crash-fullest@5:k=65,down=5"), 64, 2, 1),
      ScheduleError);
  EXPECT_NO_THROW(
      FaultPlan(parse_schedule("crash@5:bins=63,down=5"), 64, 2, 1));
}

// ---------------------------------------------------------------- plan

TEST(FaultPlanSemantics, CrashDowntimeAndRepairTiming) {
  // Bin 0 crashes at round 10 with down=3: no service in rounds 10-12,
  // repaired at the start of round 13.
  Capped p(small_config(), Engine(1));
  FaultPlan plan(parse_schedule("crash@10:bins=0,down=3,retain"), 64, 2, 1);
  p.set_fault_plan(&plan);
  for (int r = 1; r <= 9; ++r) (void)p.step();
  EXPECT_EQ(plan.crashes_total(), 0u);
  const auto m10 = p.step();
  EXPECT_EQ(plan.crashes_total(), 1u);
  EXPECT_EQ(m10.faulted_bins, 1u);
  (void)p.step();  // 11
  const auto m12 = p.step();
  EXPECT_EQ(m12.faulted_bins, 1u);
  EXPECT_EQ(plan.repairs_total(), 0u);
  const auto m13 = p.step();
  EXPECT_EQ(m13.faulted_bins, 0u);
  EXPECT_EQ(plan.repairs_total(), 1u);
}

TEST(FaultPlanSemantics, StateLossDrainsRetentionKeeps) {
  const char* retain_text = "crash@30:bins=0-63,down=5,retain";
  const char* loss_text = "crash@30:bins=0-63,down=5";

  // Retention: balls stay buffered through the outage.
  Capped retained(small_config(), Engine(3));
  FaultPlan retain_plan(parse_schedule(retain_text), 64, 2, 1);
  retained.set_fault_plan(&retain_plan);
  for (int r = 1; r <= 29; ++r) (void)retained.step();
  const std::uint64_t before = load_of(retained);
  ASSERT_GT(before, 0u);
  const auto mr = retained.step();
  EXPECT_EQ(mr.requeued, 0u);
  EXPECT_EQ(load_of(retained), before + mr.accepted);  // nothing deleted,
  EXPECT_EQ(mr.deleted, 0u);                           // nothing drained

  // State loss: every buffered ball returns to the pool that round.
  Capped lossy(small_config(), Engine(3));
  FaultPlan loss_plan(parse_schedule(loss_text), 64, 2, 1);
  lossy.set_fault_plan(&loss_plan);
  for (int r = 1; r <= 29; ++r) (void)lossy.step();
  const auto ml = lossy.step();
  EXPECT_GT(ml.requeued, 0u);
  EXPECT_EQ(load_of(lossy), 0u);
  EXPECT_EQ(ml.deleted, 0u);

  // Conservation holds in both runs.
  for (Capped* p : {&retained, &lossy}) {
    EXPECT_EQ(p->generated_total(),
              p->pool_size() + p->total_load() + p->deleted_total());
  }
}

TEST(FaultPlanSemantics, DegradeLowersAcceptanceBound) {
  // All bins degraded to cap=1 for rounds 5..204. With an effective
  // capacity of 1 every bin that accepts immediately serves, so the
  // end-of-round load of every bin is 0 throughout the degraded window
  // (with capacity 2 it can carry 1). Service keeps running at the
  // reduced bound, and after expiry bins buffer again.
  CappedConfig config = small_config();
  config.lambda_n = 62;  // pressure, so the bound binds
  Capped p(config, Engine(5));
  FaultPlan plan(parse_schedule("degrade@5:bins=0-63,cap=1,for=200"), 64, 2,
                 1);
  p.set_fault_plan(&plan);
  std::uint64_t deleted_degraded = 0;
  for (int r = 1; r <= 204; ++r) {
    const auto m = p.step();
    if (r >= 6) {
      ASSERT_EQ(p.total_load(), 0u) << "round " << r;
      deleted_degraded += m.deleted;
    }
  }
  EXPECT_GT(deleted_degraded, 0u) << "service must continue while degraded";
  std::uint64_t max_load_after = 0;
  for (int r = 205; r <= 260; ++r) {
    (void)p.step();
    for (std::uint32_t bin = 0; bin < 64; ++bin) {
      max_load_after = std::max(max_load_after, p.load(bin));
    }
  }
  EXPECT_GE(max_load_after, 1u) << "degradation should have expired";
}

TEST(FaultPlanSemantics, StragglersServeOnlyOnBeat) {
  // Period 3: the bin serves on rounds where (round - phase) % 3 == 0
  // and skips otherwise; skips are counted.
  Capped p(small_config(), Engine(7));
  FaultPlan plan(parse_schedule("straggle:bins=0-63,period=3"), 64, 2, 1);
  p.set_fault_plan(&plan);
  std::uint64_t served_on_beat = 0;
  for (int r = 1; r <= 30; ++r) {
    const auto m = p.step();
    if (r % 3 == 0) {
      EXPECT_EQ(m.faulted_bins, 0u) << "round " << r;
      served_on_beat += m.deleted;
    } else {
      EXPECT_EQ(m.faulted_bins, 64u) << "round " << r;
      EXPECT_EQ(m.deleted, 0u) << "round " << r;
    }
  }
  EXPECT_GT(served_on_beat, 0u);
  EXPECT_GT(plan.straggler_skips_total(), 0u);
}

TEST(FaultPlanSemantics, CrashFullestPicksTheLoadedBins) {
  // Manufacture imbalance: degrade all but bins 5 and 9 to cap 1, let
  // load build, then crash-fullest k=2 — bins 5 and 9 must be hit.
  CappedConfig config = small_config();
  config.lambda_n = 62;
  Capped p(config, Engine(9));
  FaultPlan plan(
      parse_schedule("degrade@1:bins=0-4+6-8+10-63,cap=1,for=300;"
                     "crash-fullest@50:k=2,down=10,retain"),
      64, 2, 1);
  p.set_fault_plan(&plan);
  for (int r = 1; r <= 49; ++r) (void)p.step();
  // Only bins 5 and 9 can reach load 2.
  const bool candidates_loaded = p.load(5) == 2 || p.load(9) == 2;
  const auto m = p.step();  // round 50
  EXPECT_EQ(plan.crashes_total(), 2u);
  EXPECT_EQ(m.faulted_bins, 2u);
  if (candidates_loaded) {
    // The fullest selection must include a maximal-load bin.
    EXPECT_TRUE(plan.down_bins() == 2);
  }
}

TEST(FaultPlanSemantics, DeterministicAcrossReplays) {
  const char* text =
      "random-crash:p=0.05,down=3-9;straggle:bins=0-9,period=2";
  std::uint64_t crashes = 0;
  std::uint64_t pool = 0;
  for (int replay = 0; replay < 2; ++replay) {
    Capped p(small_config(), Engine(11));
    FaultPlan plan(parse_schedule(text), 64, 2, 42);
    p.set_fault_plan(&plan);
    for (int r = 0; r < 200; ++r) (void)p.step();
    if (replay == 0) {
      crashes = plan.crashes_total();
      pool = p.pool_size();
      EXPECT_GT(crashes, 0u);
    } else {
      EXPECT_EQ(plan.crashes_total(), crashes);
      EXPECT_EQ(p.pool_size(), pool);
    }
  }
}

TEST(FaultPlanSemantics, FaultSeedIsItsOwnStream) {
  // Different fault seeds give different fault trajectories for the
  // same allocation seed — and never perturb a no-fire window.
  const char* text = "random-crash:p=0.05,down=5,from=100";
  Capped a(small_config(), Engine(13));
  Capped b(small_config(), Engine(13));
  FaultPlan plan_a(parse_schedule(text), 64, 2, 1);
  FaultPlan plan_b(parse_schedule(text), 64, 2, 2);
  a.set_fault_plan(&plan_a);
  b.set_fault_plan(&plan_b);
  for (int r = 0; r < 99; ++r) {
    const auto ma = a.step();
    const auto mb = b.step();
    ASSERT_EQ(ma.pool_size, mb.pool_size) << "pre-fault rounds must agree";
  }
  for (int r = 99; r < 400; ++r) {
    (void)a.step();
    (void)b.step();
  }
  EXPECT_NE(plan_a.crashes_total(), plan_b.crashes_total());
}

// ---------------------------------------------------------------- auditor

TEST(Auditor, CleanOnRealRunsEvenUnderFaults) {
  telemetry::Registry registry;
  Capped p(small_config(), Engine(17));
  FaultPlan plan(
      parse_schedule("crash@20:bins=0-31,down=10;random-crash:p=0.01,"
                     "down=3-9;straggle:bins=40-50,period=3"),
      64, 2, 1);
  p.set_fault_plan(&plan);
  InvariantAuditor auditor(/*cadence=*/1, &registry);
  for (int r = 0; r < 300; ++r) auditor.observe(p, p.step());
  EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                    ? std::string("?")
                                    : auditor.violations().front().detail);
  EXPECT_EQ(auditor.rounds_audited(), 300u);
  EXPECT_EQ(auditor.deep_audits(), 300u);
  EXPECT_EQ(registry.counter("audit_violations_total").value(), 0u);
  EXPECT_EQ(registry.counter("audit_rounds_total").value(), 300u);
}

// Age monotonicity inside a bin is NOT an invariant once a queue can
// carry balls accepted in different rounds: a retrying old ball is
// legitimately accepted behind a younger resident (oldest-first ranks
// only the balls thrown to the bin that round). A straggler that skips
// service keeps such a pair visible at the audit point (this exact
// setup flagged fifo_order before the check was scoped), and capacity
// >= 3 exposes it even unfaulted. The auditor must stay silent there.
TEST(Auditor, FifoCheckScopedToSoundRegime) {
  {
    CappedConfig config;
    config.n = 2048;
    config.capacity = 2;
    config.lambda_n = 1920;
    Capped p(config, Engine(11));
    FaultPlan plan(parse_schedule("straggle:bins=1500-1599,period=3"),
                   config.n, config.capacity, 1);
    p.set_fault_plan(&plan);
    InvariantAuditor auditor(/*cadence=*/1);
    for (int r = 0; r < 60; ++r) auditor.observe(p, p.step());
    EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                      ? std::string("?")
                                      : auditor.violations().front().detail);
  }
  {
    CappedConfig config = small_config();
    config.capacity = 3;
    Capped p(config, Engine(23));
    InvariantAuditor auditor(/*cadence=*/1);
    for (int r = 0; r < 400; ++r) auditor.observe(p, p.step());
    EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                      ? std::string("?")
                                      : auditor.violations().front().detail);
  }
}

TEST(Auditor, CadenceThrottlesDeepChecks) {
  Capped p(small_config(), Engine(19));
  InvariantAuditor auditor(/*cadence=*/10);
  for (int r = 0; r < 100; ++r) auditor.observe(p, p.step());
  EXPECT_EQ(auditor.rounds_audited(), 100u);
  EXPECT_EQ(auditor.deep_audits(), 10u);
  EXPECT_TRUE(auditor.ok());
}

TEST(Auditor, FlagsFabricatedViolations) {
  telemetry::Registry registry;
  Capped p(small_config(), Engine(21));
  InvariantAuditor auditor(/*cadence=*/1, &registry);
  auto m = p.step();
  m.wait_count = m.deleted + 5;  // break wait-per-delete
  m.round = 7;                   // break round coherence (process is at 1)
  auditor.observe(p, m);
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.violation_count(), 2u);
  EXPECT_EQ(registry.counter("audit_violations_total").value(),
            auditor.violation_count());
  bool saw_wait = false;
  bool saw_round = false;
  for (const auto& v : auditor.violations()) {
    if (v.invariant == "wait_per_delete") saw_wait = true;
    if (v.invariant == "round_coherent") saw_round = true;
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_round);
}

TEST(Auditor, DetectsConservationBreakInDoctoredProcess) {
  // Restore a snapshot whose generated_total was tampered with: the
  // deep conservation check must fire on the next observed round.
  Capped p(small_config(), Engine(23));
  for (int r = 0; r < 50; ++r) (void)p.step();
  auto snap = p.snapshot();
  snap.generated_total += 3;  // three phantom balls
  Capped doctored(snap);
  InvariantAuditor auditor(/*cadence=*/1);
  auditor.observe(doctored, doctored.step());
  EXPECT_FALSE(auditor.ok());
  bool saw = false;
  for (const auto& v : auditor.violations()) {
    if (v.invariant == "conservation") saw = true;
  }
  EXPECT_TRUE(saw);
}

}  // namespace
