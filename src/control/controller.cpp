#include "control/controller.hpp"

#include <algorithm>

namespace iba::control {

namespace {

/// Bound on the in-memory decision log: a run that changes capacity
/// thousands of times is flapping, and the counters still tell that
/// story after the log saturates.
constexpr std::size_t kMaxDecisionRecords = 256;

}  // namespace

Controller::Controller(const ControlConfig& config, std::uint32_t n,
                       std::uint64_t base_pool_limit)
    : config_(config),
      n_(n),
      base_pool_limit_(base_pool_limit),
      estimator_(n, config.window),
      admission_limit_(base_pool_limit) {
  config_.validate();
  IBA_EXPECT(config_.enabled(), "Controller: policy must not be 'none'");
  IBA_EXPECT(config_.admission_target == 0 || base_pool_limit > 0,
             "Controller: admission control requires a configured pool limit");
  decisions_.reserve(kMaxDecisionRecords);
}

std::uint64_t Controller::admission_target_limit(
    std::uint64_t current_limit) const noexcept {
  if (config_.admission_target == 0) return current_limit;
  const std::uint64_t floor = std::max<std::uint64_t>(1, n_ / 4);
  const std::uint64_t p95 = estimator_.wait_quantile_upper(0.95);
  if (p95 > config_.admission_target) {
    // Multiplicative decrease: shed harder until the wait target holds.
    return std::max(floor, current_limit / 2);
  }
  if (p95 * 2 < config_.admission_target && current_limit < base_pool_limit_) {
    // Comfortably under target: additive increase back toward the
    // configured limit.
    const std::uint64_t inc = std::max<std::uint64_t>(1, base_pool_limit_ / 16);
    return std::min(base_pool_limit_, current_limit + inc);
  }
  return current_limit;
}

std::optional<Decision> Controller::decide(std::uint64_t next_round,
                                           std::uint32_t current_capacity,
                                           std::uint64_t current_pool_limit) {
  if (config_.policy == Policy::kStatic && config_.admission_target == 0) {
    return std::nullopt;  // nothing can ever change — stay inert
  }
  if (!estimator_.warm()) return std::nullopt;
  if (next_round < cooldown_until_) return std::nullopt;

  const DecisionInput input{current_capacity, n_, config_.c_max,
                            config_.hysteresis};
  const std::uint32_t capacity =
      decide_capacity(config_.policy, estimator_, input, policy_state_);
  const std::uint64_t pool_limit = admission_target_limit(current_pool_limit);
  if (capacity == current_capacity && pool_limit == current_pool_limit) {
    return std::nullopt;  // no change: the cooldown is not consumed
  }

  cooldown_until_ = next_round + config_.cooldown;
  ++changes_;
  if (capacity > current_capacity) ++grows_;
  if (capacity < current_capacity) ++shrinks_;
  admission_limit_ = pool_limit;

  if (decisions_.size() < kMaxDecisionRecords) {
    decisions_.push_back({next_round, current_capacity, capacity,
                          current_pool_limit, pool_limit,
                          estimator_.lambda_ewma(), estimator_.mean_wait()});
  }
  return Decision{capacity, pool_limit};
}

ControllerState Controller::state() const {
  ControllerState s;
  s.estimator = estimator_.state();
  s.policy = policy_state_;
  s.cooldown_until = cooldown_until_;
  s.changes = changes_;
  s.grows = grows_;
  s.shrinks = shrinks_;
  s.admission_limit = admission_limit_;
  s.admission_base = base_pool_limit_;
  return s;
}

void Controller::restore(const ControllerState& state) {
  estimator_.restore(state.estimator);
  policy_state_ = state.policy;
  cooldown_until_ = state.cooldown_until;
  changes_ = state.changes;
  grows_ = state.grows;
  shrinks_ = state.shrinks;
  admission_limit_ = state.admission_limit;
  // A resumed process is constructed from the snapshot config, whose
  // pool_limit is the admission loop's *current* output — the original
  // baseline only survives through the serialized state.
  base_pool_limit_ = state.admission_base;
}

}  // namespace iba::control
