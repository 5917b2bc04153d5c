// Model-variation policies for CAPPED(c, λ) — the paper's footnote-2
// generalization (stochastic arrivals) and the ablation axes DESIGN.md
// §7 calls out (deletion discipline, acceptance order, bin failures).
// Defaults reproduce the paper's process exactly.
#pragma once

#include <cstdint>
#include <string_view>

namespace iba::core {

/// How many balls arrive per round.
enum class ArrivalModel : std::uint8_t {
  kDeterministic,  ///< exactly λn (the paper's model)
  kBinomial,       ///< Binomial(n, λ): n generators firing w.p. λ
                   ///< (Berenbrink–Czumaj–Friedetzky–Vvedenskaya, SPAA'00)
  kPoisson,        ///< Poisson(λn): Mitzenmacher's arrival stream
};

/// Which stored ball a non-empty bin deletes at the end of a round.
enum class DeletionDiscipline : std::uint8_t {
  kFifo,     ///< the ball allocated first (the paper's rule)
  kLifo,     ///< the ball allocated last
  kUniform,  ///< a uniformly random stored ball
};

/// Which competing balls a bin prefers when over-requested.
enum class AcceptanceOrder : std::uint8_t {
  kOldestFirst,    ///< prefer balls of higher age (the paper's rule)
  kYoungestFirst,  ///< adversarial inversion — starves old balls
};

/// What a failing bin does in the round it fails.
enum class FailureMode : std::uint8_t {
  kSkipService,   ///< hiccup: the bin simply serves nothing this round
  kCrashRequeue,  ///< crash: the bin loses its buffer; the stored balls
                  ///< return to the pool (ages preserved) and retry
};

/// What happens to arrivals when the pool is at its configured bound
/// (graceful degradation under overload/faults — docs/ROBUSTNESS.md).
enum class BackpressureMode : std::uint8_t {
  kNone,        ///< unbounded pool (the paper's model)
  kShed,        ///< arrivals beyond the bound are dropped and counted
  kDeferRetry,  ///< arrivals beyond the bound wait out a deterministic
                ///< backoff and retry admission, oldest first
};

/// How a round's hot path is executed. Both kernels realize the same
/// process — byte-identical metrics, waits, snapshots and traces for the
/// same seed (tests/kernel_differential_test.cpp) — they differ only in
/// memory-access order and parallelizability. See docs/PERFORMANCE.md.
enum class RoundKernel : std::uint8_t {
  kScalar,    ///< ball-at-a-time: one random bin access per throw; the
              ///< reference, and the path of every round kBinMajor's
              ///< sweep does not take (c = ∞, ball tracing, bail-out)
  kBinMajor,  ///< fused sweep: partition throws by bin chunk, then accept
              ///< and delete chunk by chunk on cache-resident state;
              ///< shardable
};

[[nodiscard]] constexpr std::string_view to_string(ArrivalModel m) noexcept {
  switch (m) {
    case ArrivalModel::kDeterministic: return "deterministic";
    case ArrivalModel::kBinomial: return "binomial";
    case ArrivalModel::kPoisson: return "poisson";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(
    DeletionDiscipline d) noexcept {
  switch (d) {
    case DeletionDiscipline::kFifo: return "fifo";
    case DeletionDiscipline::kLifo: return "lifo";
    case DeletionDiscipline::kUniform: return "uniform";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(
    AcceptanceOrder a) noexcept {
  switch (a) {
    case AcceptanceOrder::kOldestFirst: return "oldest-first";
    case AcceptanceOrder::kYoungestFirst: return "youngest-first";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(FailureMode f) noexcept {
  switch (f) {
    case FailureMode::kSkipService: return "skip-service";
    case FailureMode::kCrashRequeue: return "crash-requeue";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(
    BackpressureMode b) noexcept {
  switch (b) {
    case BackpressureMode::kNone: return "none";
    case BackpressureMode::kShed: return "shed";
    case BackpressureMode::kDeferRetry: return "defer";
  }
  return "?";
}

/// Parses the --backpressure flag vocabulary; false on unknown names.
[[nodiscard]] constexpr bool backpressure_from_string(
    std::string_view name, BackpressureMode& out) noexcept {
  if (name == "none") {
    out = BackpressureMode::kNone;
    return true;
  }
  if (name == "shed") {
    out = BackpressureMode::kShed;
    return true;
  }
  if (name == "defer" || name == "defer-retry") {
    out = BackpressureMode::kDeferRetry;
    return true;
  }
  return false;
}

[[nodiscard]] constexpr std::string_view to_string(RoundKernel k) noexcept {
  switch (k) {
    case RoundKernel::kScalar: return "scalar";
    case RoundKernel::kBinMajor: return "bin-major";
  }
  return "?";
}

/// Parses the --kernel flag vocabulary; returns false on unknown names.
[[nodiscard]] constexpr bool kernel_from_string(std::string_view name,
                                                RoundKernel& out) noexcept {
  if (name == "scalar") {
    out = RoundKernel::kScalar;
    return true;
  }
  if (name == "bin-major" || name == "binmajor") {
    out = RoundKernel::kBinMajor;
    return true;
  }
  return false;
}

}  // namespace iba::core
