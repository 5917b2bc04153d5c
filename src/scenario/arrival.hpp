// scenario::ArrivalModel — the one reusable description of "what traffic
// hits the system" (docs/SCENARIOS.md). It composes three orthogonal
// axes:
//
//  * a rate pattern λ(t): constant, diurnal sinusoid, periodic bursts,
//    regime switches, or replay of a request-log trace;
//  * a per-round count distribution around that rate: the paper's exact
//    λn, Binomial(n, λ) or Poisson(λn) (core::ArrivalModel, footnote 2);
//  * a bin skew: uniform bin choice or Zipf/hot-key skew, realized as a
//    core::BinChoiceSampler so every kernel stays byte-identical.
//
// Determinism: rate_at() is a pure function of the (1-based) round
// number using only IEEE-754 +−×÷ and a fixed rational sine
// approximation — no libm transcendentals — so the same scenario file
// produces the same per-round rates on every platform, which is what
// lets golden artifacts be byte-compared in CI. The only randomness is
// in the distribution / skew draws, which consume the process engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/bin_samplers.hpp"
#include "core/policies.hpp"
#include "core/process.hpp"

namespace iba::scenario {

/// The rate pattern λ(t) of an ArrivalModel.
enum class ArrivalPattern : std::uint8_t {
  kConstant,  ///< λ(t) = λ (the paper's model)
  kSinusoid,  ///< diurnal wave: λ(t) = λ + A·sin(2π(t+φ)/P)
  kBursts,    ///< λ(t) = burst rate inside periodic windows, λ outside
  kRegimes,   ///< piecewise-constant switches at scheduled rounds
  kTrace,     ///< replay per-round arrival counts from a trace file
};

[[nodiscard]] std::string_view to_string(ArrivalPattern p) noexcept;

/// How pool balls pick their bin.
enum class BinSkew : std::uint8_t {
  kUniform,  ///< uniform over [0, n) (the paper's model)
  kZipf,     ///< P[bin i] ∝ 1/(i+1)^s — hot-key skew toward low indices
};

[[nodiscard]] std::string_view to_string(BinSkew s) noexcept;

/// One regime of a kRegimes pattern: rate `lambda` from round `from` on
/// (1-based, inclusive) until the next regime takes over.
struct Regime {
  std::uint64_t from = 1;
  double lambda = 0.0;
};

/// Zipf bin-choice sampler over n bins: the weighted sampler over
/// P[i] ∝ 1/(i+1)^s (two engine draws per ball). Weights for integral s
/// are computed with exact IEEE division/multiplication so the table —
/// and therefore every trajectory — is platform-identical.
class ZipfBinSampler final : public core::WeightedBinSampler {
 public:
  ZipfBinSampler(std::uint32_t n, double s);
};

/// Declarative arrival workload. Construct via the factories (benches)
/// or the scenario parser; validate() before use.
struct ArrivalModel {
  ArrivalPattern pattern = ArrivalPattern::kConstant;
  core::ArrivalModel distribution = core::ArrivalModel::kDeterministic;

  double lambda = 0.0;       ///< base rate (constant/sinusoid/bursts)
  double amplitude = 0.0;    ///< sinusoid amplitude (rate units)
  std::uint64_t period = 0;  ///< sinusoid / burst recurrence, rounds
  std::uint64_t phase = 0;   ///< sinusoid phase offset, rounds

  double burst_lambda = 0.0;      ///< rate inside a burst window
  std::uint64_t burst_width = 0;  ///< burst window length, rounds
  std::uint64_t burst_start = 0;  ///< first round of the first burst

  std::vector<Regime> regimes;  ///< ascending `from`; first at round 1

  std::vector<std::uint64_t> trace;  ///< per-round counts (kTrace)
  bool trace_loop = true;  ///< wrap at end of trace (else hold last)

  BinSkew skew = BinSkew::kUniform;
  double zipf_s = 1.0;

  /// The paper's constant-λ workload.
  [[nodiscard]] static ArrivalModel constant(
      double lambda,
      core::ArrivalModel distribution = core::ArrivalModel::kDeterministic);

  /// Throws common::ContractViolation when the model is unusable for n
  /// bins (rates outside [0, 1], empty trace, bad regime order, …).
  void validate(std::uint32_t n) const;

  /// λ·n for the 1-based round `round` — the integral per-round arrival
  /// rate the process should run at. Pure and platform-deterministic.
  [[nodiscard]] std::uint64_t rate_at(std::uint64_t round,
                                      std::uint32_t n) const;

  /// True when rate_at varies with the round (the runner then re-sets
  /// the process rate each round).
  [[nodiscard]] bool time_varying() const noexcept {
    return pattern != ArrivalPattern::kConstant;
  }

  /// Copies the arrival axes a core::CappedConfig understands: the
  /// round-1 rate and the count distribution. (Time variation and skew
  /// are applied by the runner via set_lambda_n / set_bin_sampler.)
  void apply_to(std::uint32_t n, core::ArrivalModel& distribution_out,
                std::uint64_t& lambda_n_out) const {
    distribution_out = distribution;
    lambda_n_out = rate_at(1, n);
  }

  /// The skew sampler for n bins, or nullptr for uniform choice.
  [[nodiscard]] std::unique_ptr<core::BinChoiceSampler> make_sampler(
      std::uint32_t n) const;
};

namespace detail {

/// sin(2πx) for x ∈ [0, 1) via Bhaskara I's rational approximation on
/// each half-wave (max error ~0.0016, plenty for synthetic diurnal
/// load). Uses only +−×÷ so the value is bit-identical on every
/// IEEE-754 platform — unlike libm's sin, whose rounding may differ
/// across libc versions and would silently fork golden artifacts.
[[nodiscard]] double sin_turn(double x) noexcept;

}  // namespace detail

}  // namespace iba::scenario
