// Scoped phase timers: where does a round's time go?
//
// PhaseTimers accumulates nanoseconds and ball counts per simulation
// phase (throw / accept / delete inside a step), so a run can report
// per-phase ns-per-ball. ScopedPhaseTimer is the RAII instrument;
// constructed with a null sink it reads no clock at all.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace iba::telemetry {

enum class Phase : std::uint8_t {
  kThrow = 0,   ///< sampling one bin per pool ball
  kAccept,      ///< bins accepting into their buffers
  kDelete,      ///< end-of-round service (one ball per non-empty bin)
};

inline constexpr std::size_t kPhaseCount = 3;

[[nodiscard]] constexpr const char* phase_name(Phase phase) noexcept {
  constexpr const char* kNames[kPhaseCount] = {"throw", "accept", "delete"};
  return kNames[static_cast<std::size_t>(phase)];
}

/// Per-phase accumulated wall time, call count and processed-ball count.
class PhaseTimers {
 public:
  void add(Phase phase, std::uint64_t ns, std::uint64_t balls) noexcept {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i] += ns;
    balls_[i] += balls;
    ++calls_[i];
  }

  [[nodiscard]] std::uint64_t ns(Phase phase) const noexcept {
    return ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t balls(Phase phase) const noexcept {
    return balls_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t calls(Phase phase) const noexcept {
    return calls_[static_cast<std::size_t>(phase)];
  }
  /// Nanoseconds per processed ball in `phase` (0 when no balls).
  [[nodiscard]] double ns_per_ball(Phase phase) const noexcept {
    const auto i = static_cast<std::size_t>(phase);
    return balls_[i] == 0 ? 0.0
                          : static_cast<double>(ns_[i]) /
                                static_cast<double>(balls_[i]);
  }

  void merge(const PhaseTimers& other) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      ns_[i] += other.ns_[i];
      balls_[i] += other.balls_[i];
      calls_[i] += other.calls_[i];
    }
  }

  void reset() noexcept {
    ns_.fill(0);
    balls_.fill(0);
    calls_.fill(0);
  }

 private:
  std::array<std::uint64_t, kPhaseCount> ns_{};
  std::array<std::uint64_t, kPhaseCount> balls_{};
  std::array<std::uint64_t, kPhaseCount> calls_{};
};

/// RAII timer: reads the clock at scope entry/exit and credits the
/// elapsed time (plus `balls`, adjustable via set_balls before exit) to
/// one phase of the sink. A null sink skips the clock reads.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseTimers* sink, Phase phase,
                   std::uint64_t balls = 0) noexcept
      : sink_(sink), phase_(phase), balls_(balls) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

  /// For phases whose ball count is only known at the end (e.g. delete).
  void set_balls(std::uint64_t balls) noexcept { balls_ = balls; }

  /// Ends the timed section now (instead of at scope exit).
  void stop() noexcept {
    if (sink_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->add(phase_, static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               elapsed)
                               .count()),
               balls_);
    sink_ = nullptr;
  }

  ~ScopedPhaseTimer() { stop(); }

 private:
  PhaseTimers* sink_;
  Phase phase_;
  std::uint64_t balls_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace iba::telemetry
