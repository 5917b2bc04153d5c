// Scenario-level recording: the [record] section parses and stays out
// of the digest, a recorded run writes a deterministic time series, the
// trigger battery lands CRC-bound bundles, and the bundle/series bytes
// are invariant across kernels, shard counts and kill-and-resume — the
// acceptance contract of the flight recorder.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/generation.hpp"
#include "telemetry/flight_recorder.hpp"

namespace iba::scenario {
namespace {

constexpr const char* kBase = R"(
[system]
n = 512
c = 2

[arrival]
model = constant
lambda = 0.9375

[run]
rounds = 120
burn-in = 40
seed = 7
)";

constexpr const char* kRecorded = R"(
[system]
n = 512
c = 2

[arrival]
model = constant
lambda = 0.9375

[run]
rounds = 120
burn-in = 40
seed = 7

[record]
timeseries = true
cadence = 2
window = 16
shed-spike = 50
)";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ScenarioRecord, SectionParsesWithDefaults) {
  const Scenario plain = parse_scenario(kBase, "test.scn");
  EXPECT_FALSE(plain.record.timeseries);
  EXPECT_EQ(plain.record.cadence, 1u);
  EXPECT_EQ(plain.record.window, 64u);
  EXPECT_EQ(plain.record.shed_spike, 0u);

  const Scenario recorded = parse_scenario(kRecorded, "test.scn");
  EXPECT_TRUE(recorded.record.timeseries);
  EXPECT_EQ(recorded.record.cadence, 2u);
  EXPECT_EQ(recorded.record.window, 16u);
  EXPECT_EQ(recorded.record.shed_spike, 50u);
}

TEST(ScenarioRecord, RecordSectionIsAnExecutionHint) {
  const Scenario plain = parse_scenario(kBase, "test.scn");
  const Scenario recorded = parse_scenario(kRecorded, "test.scn");
  // Recording must not change what the scenario *is*: same canonical
  // text, same digest, same artifact bytes.
  EXPECT_EQ(plain.canonical_text(), recorded.canonical_text());
  EXPECT_EQ(plain.digest(), recorded.digest());
}

TEST(ScenarioRecord, RecordingLeavesTheArtifactUntouched) {
  const Scenario scn = parse_scenario(kRecorded, "test.scn");
  TempFile series("record_test.timeseries");

  const RunOutcome bare = run_scenario(parse_scenario(kBase, "test.scn"));
  RunOptions options;
  options.timeseries_out = series.path;
  const RunOutcome recorded = run_scenario(scn, options);
  EXPECT_EQ(artifact::render_artifact(recorded.artifact),
            artifact::render_artifact(bare.artifact));

  const std::string text = read_file(series.path);
  EXPECT_EQ(text.rfind("iba-timeseries 1\n", 0), 0u) << text.substr(0, 40);
  EXPECT_NE(text.find("cadence = 2"), std::string::npos);
}

TEST(ScenarioRecord, DebugTriggerLandsAVerifiedBundle) {
  const Scenario scn = parse_scenario(kRecorded, "test.scn");
  TempFile bundle("record_test.postmortem");
  RunOptions options;
  options.flight_recorder = bundle.path;
  options.debug_trigger = "manual";
  (void)run_scenario(scn, options);

  const telemetry::PostmortemBundle parsed =
      telemetry::read_bundle_file(bundle.path);
  EXPECT_EQ(parsed.trigger, "manual");
  EXPECT_EQ(parsed.scenario, scn.name);
  EXPECT_EQ(parsed.digest, scn.digest());
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_EQ(parsed.n, 512u);
  EXPECT_NE(parsed.engine, "0");  // fingerprint was stamped
  EXPECT_EQ(parsed.round, 160u);  // fired after burn-in + rounds
  EXPECT_EQ(parsed.cadence, 2u);
  EXPECT_GT(parsed.samples, 0u);
}

TEST(ScenarioRecord, ExpectationFailureFiresTheRecorder) {
  // An impossible expectation: the pool can never be this empty at
  // λ ≈ 0.94, so the [expect] evaluation must fail and fire the trigger.
  Scenario scn = parse_scenario(kRecorded, "test.scn");
  scn.expect.max_pool_over_n = 1e-9;
  TempFile bundle("record_test_expect.postmortem");
  RunOptions options;
  options.flight_recorder = bundle.path;
  const RunOutcome outcome = run_scenario(scn, options);
  EXPECT_FALSE(outcome.expectations_ok);
  const telemetry::PostmortemBundle parsed =
      telemetry::read_bundle_file(bundle.path);
  EXPECT_EQ(parsed.trigger, "expectation-failure");
}

TEST(ScenarioRecord, BundleBytesAreKernelAndShardInvariant) {
  const Scenario scn = parse_scenario(kRecorded, "test.scn");

  auto bundle_of = [&](RunOptions options, const std::string& path) {
    TempFile bundle(path);
    options.flight_recorder = bundle.path;
    options.debug_trigger = "manual";
    (void)run_scenario(scn, options);
    return read_file(bundle.path);
  };

  RunOptions bin_major;
  const std::string reference = bundle_of(bin_major, "rb_ref.postmortem");
  ASSERT_FALSE(reference.empty());

  RunOptions scalar;
  scalar.kernel = core::RoundKernel::kScalar;
  EXPECT_EQ(bundle_of(scalar, "rb_scalar.postmortem"), reference);

  RunOptions sharded;
  sharded.shards = 4;
  EXPECT_EQ(bundle_of(sharded, "rb_sharded.postmortem"), reference);
}

TEST(ScenarioRecord, KillAndResumeReproducesSeriesAndBundle) {
  const Scenario scn = parse_scenario(kRecorded, "test.scn");

  TempFile ref_series("rr_ref.timeseries");
  TempFile ref_bundle("rr_ref.postmortem");
  {
    RunOptions options;
    options.timeseries_out = ref_series.path;
    options.flight_recorder = ref_bundle.path;
    options.debug_trigger = "manual";
    (void)run_scenario(scn, options);
  }

  const std::string base = "rr.ckpt";
  TempFile manifest(sim::manifest_path(base));
  TempFile ckpt(sim::coord_path(base, 90));
  TempFile ckpt_progress(sim::progress_path(base, 90));
  TempFile ckpt_record(sim::record_path(base, 90));
  TempFile res_series("rr_res.timeseries");
  TempFile res_bundle("rr_res.postmortem");
  {
    RunOptions first;
    first.timeseries_out = res_series.path;
    first.flight_recorder = res_bundle.path;
    first.checkpoint_out = base;
    first.stop_after = 90;  // mid-run, mid-fold
    const RunOutcome stopped = run_scenario(scn, first);
    EXPECT_FALSE(stopped.complete);
  }
  {
    RunOptions second;
    second.timeseries_out = res_series.path;
    second.flight_recorder = res_bundle.path;
    second.debug_trigger = "manual";
    second.resume = base;
    const RunOutcome finished = run_scenario(scn, second);
    EXPECT_TRUE(finished.complete);
  }
  EXPECT_EQ(read_file(res_series.path), read_file(ref_series.path));
  EXPECT_EQ(read_file(res_bundle.path), read_file(ref_bundle.path));
}

TEST(ScenarioRecord, ResumingARecordingRunRequiresTheSidecar) {
  const Scenario scn = parse_scenario(kRecorded, "test.scn");
  const std::string base = "rs.ckpt";
  TempFile manifest(sim::manifest_path(base));
  TempFile ckpt(sim::coord_path(base, 90));
  TempFile ckpt_progress(sim::progress_path(base, 90));
  TempFile ckpt_record(sim::record_path(base, 90));
  TempFile series("rs.timeseries");
  {
    RunOptions first;
    first.timeseries_out = series.path;
    first.checkpoint_out = base;
    first.stop_after = 90;
    (void)run_scenario(scn, first);
  }
  std::remove(ckpt_record.path.c_str());
  RunOptions second;
  second.timeseries_out = series.path;
  second.resume = base;
  EXPECT_THROW((void)run_scenario(scn, second), std::runtime_error);
}

TEST(ScenarioRecord, BadDebugTriggerIsAContractViolation) {
  const Scenario scn = parse_scenario(kBase, "test.scn");
  RunOptions options;
  options.flight_recorder = "never_written.postmortem";
  options.debug_trigger = "no-such-trigger";
  EXPECT_THROW((void)run_scenario(scn, options), iba::ContractViolation);
}

}  // namespace
}  // namespace iba::scenario
