// FlightRecorder: trigger latch semantics, bundle rendering + CRC
// verification (including the corruption battery), the file round-trip
// through the atomic writer, bounded logs, and the state round-trip the
// checkpoint's .record sidecar depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/timeseries.hpp"

namespace iba::telemetry {
namespace {

TimeSeriesSample make_sample(std::uint64_t round) {
  TimeSeriesSample s;
  s.round = round;
  s.pool_size = 100 + round % 13;
  s.generated = 50;
  s.deleted = 49;
  s.max_load = 2;
  s.capacity = 2;
  return s;
}

RecordedDecision make_decision(std::uint64_t round) {
  RecordedDecision d;
  d.round = round;
  d.old_capacity = 2;
  d.new_capacity = 3;
  d.old_pool_limit = 0;
  d.new_pool_limit = 0;
  d.lambda_hat_micro = 937500;
  return d;
}

/// A recorder with context, some history, and a latched trigger.
FlightRecorder make_armed(const TimeSeries* series = nullptr) {
  FlightRecorder recorder({.window = 8});
  recorder.attach_time_series(series);
  recorder.set_context("unit", "deadbeef", 42, 1024);
  recorder.set_engine_fingerprint("0badcafe");
  recorder.note_decision(make_decision(10));
  recorder.note_event(11, "fault", "crashes +3");
  recorder.trigger(TriggerKind::kShedSpike, 12, "shed 99 > threshold 10");
  return recorder;
}

TEST(FlightRecorder, TriggerNamesRoundTrip) {
  for (std::size_t i = 0; i < kTriggerKindCount; ++i) {
    const auto kind = static_cast<TriggerKind>(i);
    TriggerKind parsed{};
    ASSERT_TRUE(trigger_from_name(trigger_name(kind), parsed))
        << trigger_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  TriggerKind parsed{};
  EXPECT_FALSE(trigger_from_name("no-such-trigger", parsed));
}

TEST(FlightRecorder, FirstTriggerLatches) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.triggered());
  EXPECT_TRUE(recorder.trigger(TriggerKind::kAuditorViolation, 7, "first"));
  EXPECT_FALSE(recorder.trigger(TriggerKind::kManual, 9, "second"));
  EXPECT_EQ(recorder.trigger_kind(), TriggerKind::kAuditorViolation);
  EXPECT_EQ(recorder.trigger_round(), 7u);
  // Both triggers land in the event log even though only one latched.
  EXPECT_EQ(recorder.event_count(), 2u);
}

TEST(FlightRecorder, RenderRequiresALatchedTrigger) {
  FlightRecorder recorder;
  EXPECT_THROW((void)recorder.render_bundle(), std::runtime_error);
}

TEST(FlightRecorder, LogsStayBounded) {
  FlightRecorder recorder({.window = 4, .max_decisions = 5, .max_events = 5});
  for (std::uint64_t r = 0; r < 50; ++r) {
    recorder.note_decision(make_decision(r));
    recorder.note_event(r, "fault", "x");
  }
  EXPECT_EQ(recorder.decision_count(), 5u);
  EXPECT_EQ(recorder.event_count(), 5u);
}

TEST(FlightRecorder, BundleVerifiesAndParses) {
  TimeSeries series;
  for (std::uint64_t r = 1; r <= 20; ++r) series.observe(make_sample(r));
  const FlightRecorder recorder = make_armed(&series);

  const std::string text = recorder.render_bundle();
  EXPECT_NO_THROW(verify_bundle_text(text));

  const std::string path = "flight_recorder_test.bundle";
  recorder.write_bundle(path);
  const PostmortemBundle bundle = read_bundle_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(bundle.text, text);
  EXPECT_EQ(bundle.version, 1u);
  EXPECT_EQ(bundle.trigger, "shed-spike");
  EXPECT_EQ(bundle.round, 12u);
  EXPECT_EQ(bundle.scenario, "unit");
  EXPECT_EQ(bundle.digest, "deadbeef");
  EXPECT_EQ(bundle.seed, 42u);
  EXPECT_EQ(bundle.n, 1024u);
  EXPECT_EQ(bundle.engine, "0badcafe");
  ASSERT_EQ(bundle.decisions.size(), 1u);
  EXPECT_EQ(bundle.decisions[0],
            "round 10 capacity 2 -> 3 pool-limit 0 -> 0 "
            "lambda-micro 937500");
  // fault event + the trigger's own event
  ASSERT_EQ(bundle.events.size(), 2u);
  EXPECT_EQ(bundle.samples, 8u);  // window=8 of the 20 observed

  // The parsed series resolves the delta coding back to raw values.
  bool found_pool = false;
  for (const auto& [name, values] : bundle.series) {
    if (name != "pool_size") continue;
    found_pool = true;
    ASSERT_EQ(values.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(values[i], make_sample(13 + i).pool_size);
    }
  }
  EXPECT_TRUE(found_pool);
}

TEST(FlightRecorder, CorruptedBundlesAreRejected) {
  const std::string text = make_armed().render_bundle();
  EXPECT_NO_THROW(verify_bundle_text(text));

  // Flip one payload byte: CRC mismatch.
  std::string flipped = text;
  flipped[text.find("shed-spike")] = 'X';
  EXPECT_THROW(verify_bundle_text(flipped), std::runtime_error);
  // Truncate the trailer: structural damage.
  EXPECT_THROW(verify_bundle_text(text.substr(0, text.size() - 2)),
               std::runtime_error);
  // Forge the stated CRC itself.
  std::string forged = text;
  forged.replace(forged.rfind("crc32 = ") + 8, 8, "00000000");
  if (forged != text) {
    EXPECT_THROW(verify_bundle_text(forged), std::runtime_error);
  }
  // Wrong magic / version.
  EXPECT_THROW(verify_bundle_text("iba-checkpoint 1\nend\n"),
               std::runtime_error);
  EXPECT_THROW(verify_bundle_text(""), std::runtime_error);
}

TEST(FlightRecorder, StateRoundTripPreservesTheBundle) {
  TimeSeries series;
  for (std::uint64_t r = 1; r <= 20; ++r) series.observe(make_sample(r));
  const FlightRecorder recorder = make_armed(&series);

  FlightRecorder restored({.window = 8});
  restored.attach_time_series(&series);
  restored.set_engine_fingerprint("0badcafe");
  restored.restore_state(recorder.state_text());
  EXPECT_TRUE(restored.triggered());
  EXPECT_EQ(restored.trigger_kind(), TriggerKind::kShedSpike);
  EXPECT_EQ(restored.render_bundle(), recorder.render_bundle());
}

TEST(FlightRecorder, RestoreRejectsGarbage) {
  FlightRecorder recorder;
  EXPECT_THROW(recorder.restore_state("not a state"), std::runtime_error);
  EXPECT_THROW(recorder.restore_state("trigger-kind = bogus\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace iba::telemetry
