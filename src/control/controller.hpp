// Controller — the actuating half of the adaptive control plane
// (docs/CONTROL.md). One instance rides inside core::Capped:
//
//   observe(m)   after every completed round, feeding the estimator;
//   decide(...)  at the next round boundary, before any engine draw —
//                returns the capacity / pool-limit targets to apply, or
//                nullopt when nothing should change (cold estimator,
//                cooldown, or the policy is happy).
//
// Actuation discipline (what keeps kernels byte-identical and resumes
// exact):
//  * decisions are taken only at round boundaries, from estimator state
//    that is itself a pure function of the byte-identical metrics
//    stream — so every kernel and shard count takes the same decision
//    at the same round;
//  * the cooldown is consumed only when a change actually applies:
//    refusing to change is free, flapping is rate-limited;
//  * the full mutable state (estimator rings, policy memory, cooldown,
//    counters, admission limit) round-trips through ControllerState for
//    checkpoint format v3 — a killed-and-resumed run decides
//    identically, including mid-shrink.
//
// The controller never touches the process RNG and allocates nothing
// after construction (the decision log is bounded and pre-reserved).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "control/estimator.hpp"
#include "control/policy.hpp"

namespace iba::control {

/// Full serializable controller state (checkpoint v3).
struct ControllerState {
  EstimatorState estimator;
  PolicyState policy;
  std::uint64_t cooldown_until = 0;  ///< first round allowed to change
  std::uint64_t changes = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t admission_limit = 0;  ///< current pool limit (0: none)
  /// The originally configured pool limit. The live config's pool_limit
  /// tracks the admission loop's output, so a resumed run would
  /// otherwise adopt the adjusted value as its relax-back baseline and
  /// decide differently from the uninterrupted run.
  std::uint64_t admission_base = 0;
  bool operator==(const ControllerState&) const = default;
};

/// Targets for the upcoming round. Only returned when at least one of
/// them differs from the current value.
struct Decision {
  std::uint32_t capacity = 0;
  std::uint64_t pool_limit = 0;  ///< 0 when admission control is off
};

/// One applied change, kept in a bounded in-memory log for reports and
/// tests (not serialized — the counters survive the resume).
struct DecisionRecord {
  std::uint64_t round = 0;
  std::uint32_t old_capacity = 0;
  std::uint32_t new_capacity = 0;
  std::uint64_t old_pool_limit = 0;
  std::uint64_t new_pool_limit = 0;
  double lambda_hat = 0.0;
  double mean_wait = 0.0;
};

class Controller {
 public:
  /// `base_pool_limit` is the configured pool cap the admission loop
  /// relaxes back toward (0 when admission control is unused).
  Controller(const ControlConfig& config, std::uint32_t n,
             std::uint64_t base_pool_limit);

  /// Feeds one completed round into the estimator. O(1).
  void observe(const core::RoundMetrics& m) noexcept {
    estimator_.observe(m);
  }

  /// Consults the policy for round `next_round` (the round about to
  /// run). Returns the targets when something should change, nullopt
  /// otherwise. Deterministic; mutates policy memory and, on an applied
  /// change, arms the cooldown and logs the decision.
  [[nodiscard]] std::optional<Decision> decide(std::uint64_t next_round,
                                               std::uint32_t current_capacity,
                                               std::uint64_t current_pool_limit);

  [[nodiscard]] const ControlConfig& config() const noexcept { return config_; }
  [[nodiscard]] const OnlineEstimator& estimator() const noexcept {
    return estimator_;
  }
  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] std::uint64_t changes_total() const noexcept {
    return changes_;
  }
  [[nodiscard]] std::uint64_t grows_total() const noexcept { return grows_; }
  [[nodiscard]] std::uint64_t shrinks_total() const noexcept {
    return shrinks_;
  }

  [[nodiscard]] ControllerState state() const;
  /// Throws ContractViolation when the state does not fit this
  /// configuration (wrong estimator window).
  void restore(const ControllerState& state);

 private:
  [[nodiscard]] std::uint64_t admission_target_limit(
      std::uint64_t current_limit) const noexcept;

  ControlConfig config_;
  std::uint32_t n_;
  std::uint64_t base_pool_limit_;
  OnlineEstimator estimator_;
  PolicyState policy_state_;
  std::uint64_t cooldown_until_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
  std::uint64_t admission_limit_ = 0;
  std::vector<DecisionRecord> decisions_;
};

}  // namespace iba::control
