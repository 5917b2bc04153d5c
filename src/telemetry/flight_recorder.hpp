// Black-box flight recorder: when a run goes wrong, capture why.
//
// A FlightRecorder rides beside a TimeSeries and accumulates bounded,
// simulation-deterministic context — recent control decisions, recent
// structured events (fault activity, resume markers, violations) — so
// that the first armed trigger can dump a complete postmortem bundle:
//
//   iba-postmortem 1
//   trigger = auditor-violation | expectation-failure | shed-spike |
//             resume-mismatch | manual
//   <identity: scenario, digest, seed, engine fingerprint>
//   [decisions]  recent applied control decisions
//   [events]     recent structured events, oldest first
//   [timeseries] last-K tier-0 samples at full resolution (delta-coded)
//   end
//   crc32 = <8 lowercase hex over everything above>
//
// Bundles are committed through io::sealed like artifacts and
// checkpoints, and carry its trailer envelope so a torn or corrupted
// bundle is rejected at read time, never misread.
//
// Determinism: every recorded field is a pure function of simulation
// state (λ̂ rides as ×10⁶ fixed point, no wall-clock anywhere), so for a
// fixed (scenario, seed) the bundle bytes are identical across the
// scalar / fused / sharded kernels — and across kill-and-resume, because
// state_text()/restore_state() carry the decision/event logs and the
// trigger latch through the checkpoint's `.record` sidecar. The recorder
// latches on the first trigger: later triggers are recorded as events
// but never overwrite the bundle of record.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/timeseries.hpp"

namespace iba::telemetry {

enum class TriggerKind : std::uint8_t {
  kAuditorViolation = 0,
  kExpectationFailure,
  kShedSpike,
  kResumeMismatch,
  kManual,
};

inline constexpr std::size_t kTriggerKindCount = 5;

[[nodiscard]] const char* trigger_name(TriggerKind kind) noexcept;
/// Inverse of trigger_name; returns false on an unknown name.
[[nodiscard]] bool trigger_from_name(const std::string& name,
                                     TriggerKind& kind) noexcept;

struct FlightRecorderConfig {
  /// Tier-0 samples included at full resolution in a bundle.
  std::uint64_t window = 64;
  std::size_t max_decisions = 64;  ///< bounded decision log (newest kept)
  std::size_t max_events = 64;     ///< bounded event log (newest kept)
};

/// One applied control decision, integer-only for byte determinism.
struct RecordedDecision {
  std::uint64_t round = 0;
  std::uint32_t old_capacity = 0;
  std::uint32_t new_capacity = 0;
  std::uint64_t old_pool_limit = 0;
  std::uint64_t new_pool_limit = 0;
  std::uint64_t lambda_hat_micro = 0;
};

/// One structured event (fault activity, violations, lifecycle marks).
/// `detail` must be single-line and simulation-deterministic.
struct RecordedEvent {
  std::uint64_t round = 0;
  std::string kind;
  std::string detail;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  /// Attaches the time series whose tail becomes the bundle's
  /// [timeseries] section. May be null (section renders empty).
  void attach_time_series(const TimeSeries* series) noexcept {
    series_ = series;
  }

  /// Run identity stamped into every bundle.
  void set_context(std::string scenario_name, std::string digest,
                   std::uint64_t seed, std::uint64_t n);
  /// Engine fingerprint (e.g. CRC of the engine state words) at the
  /// moment of the trigger; callers refresh it just before trigger().
  void set_engine_fingerprint(std::string fingerprint) {
    engine_fingerprint_ = std::move(fingerprint);
  }

  void note_decision(const RecordedDecision& decision);
  void note_event(std::uint64_t round, std::string kind, std::string detail);

  /// Fires a trigger: latches the first one (recording it as the bundle
  /// of record) and logs every one as an event. Returns true when this
  /// call armed the latch — the caller should then write the bundle.
  bool trigger(TriggerKind kind, std::uint64_t round,
               const std::string& detail);

  [[nodiscard]] bool triggered() const noexcept { return triggered_; }
  [[nodiscard]] TriggerKind trigger_kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t trigger_round() const noexcept {
    return trigger_round_;
  }
  [[nodiscard]] const FlightRecorderConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t decision_count() const noexcept {
    return decisions_.size();
  }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }

  /// The complete bundle text, CRC trailer included. Requires a latched
  /// trigger.
  [[nodiscard]] std::string render_bundle() const;
  /// Commits render_bundle() to `path` (io::sealed::commit).
  void write_bundle(const std::string& path) const;

  /// Recorder state (logs + latch) for the checkpoint's `.record`
  /// sidecar; the attached TimeSeries serializes itself separately.
  [[nodiscard]] std::string state_text() const;
  void restore_state(const std::string& text);

 private:
  FlightRecorderConfig config_;
  const TimeSeries* series_ = nullptr;

  std::string scenario_name_ = "unknown";
  std::string digest_ = "0";
  std::uint64_t seed_ = 0;
  std::uint64_t n_ = 0;
  std::string engine_fingerprint_ = "0";

  std::deque<RecordedDecision> decisions_;
  std::deque<RecordedEvent> events_;

  bool triggered_ = false;
  TriggerKind kind_ = TriggerKind::kManual;
  std::uint64_t trigger_round_ = 0;
  std::string trigger_detail_;
};

/// Parsed view of a bundle file, for the postmortem CLI and tests.
struct PostmortemBundle {
  std::uint32_t version = 0;
  std::string trigger;
  std::uint64_t round = 0;
  std::string detail;
  std::string scenario;
  std::string digest;
  std::uint64_t seed = 0;
  std::uint64_t n = 0;
  std::string engine;
  std::vector<std::string> decisions;  ///< canonical decision lines
  std::vector<std::string> events;     ///< canonical event lines
  std::uint64_t cadence = 1;
  std::uint64_t samples = 0;
  /// Column name → reconstructed values (deltas already resolved).
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> series;
  std::string text;  ///< the verified raw text
};

/// Verifies magic/version/CRC; throws std::runtime_error on any damage.
void verify_bundle_text(const std::string& text);
/// Reads + verifies + parses a bundle file.
[[nodiscard]] PostmortemBundle read_bundle_file(const std::string& path);

}  // namespace iba::telemetry
