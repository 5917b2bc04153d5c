// Fault-injection hook interface between the round kernels and the
// fault subsystem (src/fault/). core cannot depend on fault (fault's
// InvariantAuditor inspects core::Capped), so Capped consumes faults
// through this minimal per-round view and fault::FaultPlan implements it.
//
// Contract (what keeps scalar / fused / sharded byte-identical):
//  * begin_round() is called exactly once per round, after admission,
//    before the round's bin-choice draw; the provider never touches the
//    engine. Any randomness it needs comes from its own stream.
//  * flags() / effective_capacity() are dense n-element arrays, constant
//    for the duration of the round. Every kernel reads them the same
//    way: acceptance bounds load by effective_capacity()[bin] instead of
//    c, and the delete phase consults flags()[bin] *before* drawing the
//    per-bin failure coin, so the engine consumption of faulted rounds
//    is identical across kernels and shard counts.
#pragma once

#include <cstdint>
#include <functional>

namespace iba::core {

/// Per-bin fault flags for one round (bitmask).
struct FaultFlags {
  /// The bin serves nothing this round (down, or a straggler's off-beat).
  static constexpr std::uint8_t kNoServe = 1u << 0;
  /// The bin lost its state this round: the delete phase drains its
  /// buffer back into the pool (labels preserved). Implies kNoServe.
  static constexpr std::uint8_t kDrain = 1u << 1;
};

/// One round's worth of fault decisions, recomputed by begin_round().
class RoundFaultProvider {
 public:
  virtual ~RoundFaultProvider() = default;

  /// Advances the provider to `round` (strictly increasing between
  /// calls). `capacity` is the round's acceptance capacity — constant
  /// without a controller, but the adaptive control plane (src/control/)
  /// retunes it at round boundaries, and a healthy bin's effective
  /// capacity must track the current value, not the value at plan
  /// construction. `load(bin)` reads the start-of-round load of a bin —
  /// used by load-aware events (crash-the-fullest); it must not be
  /// retained.
  virtual void begin_round(
      std::uint64_t round, std::uint32_t capacity,
      const std::function<std::uint64_t(std::uint32_t)>& load) = 0;

  /// True when any bin carries a flag or a reduced capacity this round;
  /// false lets the kernels keep their unfaulted fast paths.
  [[nodiscard]] virtual bool active() const noexcept = 0;

  /// Dense n-element array of FaultFlags masks for this round.
  [[nodiscard]] virtual const std::uint8_t* flags() const noexcept = 0;

  /// Dense n-element array: the acceptance bound of each bin this round
  /// (0 for a down bin, the degraded c_i while degraded, c otherwise).
  [[nodiscard]] virtual const std::uint32_t* effective_capacity()
      const noexcept = 0;

  /// Number of bins carrying any flag this round (telemetry).
  [[nodiscard]] virtual std::uint64_t faulted_bins() const noexcept = 0;
};

}  // namespace iba::core
