#include "scenario/arrival.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace iba::scenario {

namespace detail {

double sin_turn(double x) noexcept {
  // Bhaskara I: sin(θ) ≈ 16θ(π−θ) / (5π² − 4θ(π−θ)) on θ ∈ [0, π].
  // Work in turns: θ/π = 2x on the first half-wave. Negate on the
  // second. Inputs outside [0, 1) are reduced by the caller.
  const bool negative = x >= 0.5;
  const double h = negative ? x - 0.5 : x;  // half-wave position in [0, 0.5)
  const double t = 2.0 * h;                 // θ/π ∈ [0, 1)
  const double p = t * (1.0 - t);
  const double value = 16.0 * p / (5.0 - 4.0 * p);
  return negative ? -value : value;
}

namespace {

/// round(λ·n) clamped to [0, n], as a u64 — the one place a real rate
/// becomes an integral per-round count.
std::uint64_t quantize(double lambda, std::uint32_t n) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda >= 1.0) return n;
  const double exact = lambda * static_cast<double>(n);
  const auto rounded = static_cast<std::uint64_t>(exact + 0.5);
  return rounded > n ? n : rounded;
}

}  // namespace

}  // namespace detail

std::string_view to_string(ArrivalPattern p) noexcept {
  switch (p) {
    case ArrivalPattern::kConstant: return "constant";
    case ArrivalPattern::kSinusoid: return "sinusoid";
    case ArrivalPattern::kBursts: return "bursts";
    case ArrivalPattern::kRegimes: return "regimes";
    case ArrivalPattern::kTrace: return "trace";
  }
  return "?";
}

std::string_view to_string(BinSkew s) noexcept {
  switch (s) {
    case BinSkew::kUniform: return "none";
    case BinSkew::kZipf: return "zipf";
  }
  return "?";
}

ZipfBinSampler::ZipfBinSampler(std::uint32_t n, double s)
    : WeightedBinSampler(n, [n, s] {
        IBA_EXPECT(n >= 1, "ZipfBinSampler: n must be positive");
        IBA_EXPECT(s >= 0.0 && s <= 8.0,
                   "ZipfBinSampler: exponent must lie in [0, 8]");
        std::vector<double> weights(n);
        // Integral exponents use exact division/multiplication chains
        // (platform-identical); fractional exponents fall back to pow.
        const auto int_s = static_cast<int>(s);
        const bool integral = s == static_cast<double>(int_s);
        for (std::uint32_t i = 0; i < n; ++i) {
          const double rank = static_cast<double>(i) + 1.0;
          if (integral) {
            double denom = 1.0;
            for (int k = 0; k < int_s; ++k) denom *= rank;
            weights[i] = 1.0 / denom;
          } else {
            weights[i] = std::pow(rank, -s);
          }
        }
        return weights;
      }()),
      s_(s) {}

ArrivalModel ArrivalModel::constant(double lambda,
                                    core::ArrivalModel distribution) {
  ArrivalModel model;
  model.pattern = ArrivalPattern::kConstant;
  model.distribution = distribution;
  model.lambda = lambda;
  return model;
}

void ArrivalModel::validate(std::uint32_t n) const {
  IBA_EXPECT(n >= 1, "ArrivalModel: n must be positive");
  const auto check_rate = [](double rate, const char* what) {
    IBA_EXPECT(rate >= 0.0 && rate <= 1.0, what);
  };
  switch (pattern) {
    case ArrivalPattern::kConstant:
      check_rate(lambda, "ArrivalModel: lambda must lie in [0, 1]");
      break;
    case ArrivalPattern::kSinusoid:
      check_rate(lambda, "ArrivalModel: lambda must lie in [0, 1]");
      IBA_EXPECT(period >= 2, "ArrivalModel: sinusoid period must be >= 2");
      IBA_EXPECT(amplitude >= 0.0,
                 "ArrivalModel: amplitude must be non-negative");
      check_rate(lambda + amplitude,
                 "ArrivalModel: lambda + amplitude must not exceed 1");
      check_rate(lambda - amplitude,
                 "ArrivalModel: lambda - amplitude must not drop below 0");
      break;
    case ArrivalPattern::kBursts:
      check_rate(lambda, "ArrivalModel: lambda must lie in [0, 1]");
      check_rate(burst_lambda,
                 "ArrivalModel: burst-lambda must lie in [0, 1]");
      IBA_EXPECT(period >= 1, "ArrivalModel: burst period must be >= 1");
      IBA_EXPECT(burst_width >= 1 && burst_width <= period,
                 "ArrivalModel: burst-width must lie in [1, period]");
      IBA_EXPECT(burst_start >= 1,
                 "ArrivalModel: burst-start must be a round >= 1");
      break;
    case ArrivalPattern::kRegimes: {
      IBA_EXPECT(!regimes.empty(), "ArrivalModel: regimes must be non-empty");
      IBA_EXPECT(regimes.front().from == 1,
                 "ArrivalModel: first regime must start at round 1");
      std::uint64_t last = 0;
      for (const Regime& regime : regimes) {
        IBA_EXPECT(regime.from > last,
                   "ArrivalModel: regime rounds must be strictly ascending");
        check_rate(regime.lambda,
                   "ArrivalModel: regime lambda must lie in [0, 1]");
        last = regime.from;
      }
      break;
    }
    case ArrivalPattern::kTrace:
      IBA_EXPECT(!trace.empty(), "ArrivalModel: trace must be non-empty");
      for (const std::uint64_t count : trace) {
        IBA_EXPECT(count <= n,
                   "ArrivalModel: trace count must not exceed n (lambda <= 1)");
      }
      break;
  }
  if (skew == BinSkew::kZipf) {
    IBA_EXPECT(zipf_s >= 0.0 && zipf_s <= 8.0,
               "ArrivalModel: zipf-s must lie in [0, 8]");
  }
}

std::uint64_t ArrivalModel::rate_at(std::uint64_t round,
                                    std::uint32_t n) const {
  IBA_ASSERT(round >= 1);
  switch (pattern) {
    case ArrivalPattern::kConstant:
      return detail::quantize(lambda, n);
    case ArrivalPattern::kSinusoid: {
      const std::uint64_t pos = (round - 1 + phase) % period;
      const double x = static_cast<double>(pos) / static_cast<double>(period);
      return detail::quantize(lambda + amplitude * detail::sin_turn(x), n);
    }
    case ArrivalPattern::kBursts: {
      if (round < burst_start) return detail::quantize(lambda, n);
      const std::uint64_t pos = (round - burst_start) % period;
      return detail::quantize(pos < burst_width ? burst_lambda : lambda, n);
    }
    case ArrivalPattern::kRegimes: {
      double rate = regimes.front().lambda;
      for (const Regime& regime : regimes) {
        if (regime.from > round) break;
        rate = regime.lambda;
      }
      return detail::quantize(rate, n);
    }
    case ArrivalPattern::kTrace: {
      const std::uint64_t index = round - 1;
      if (index < trace.size()) return trace[index];
      if (trace_loop) return trace[index % trace.size()];
      return trace.back();
    }
  }
  return 0;
}

std::unique_ptr<core::BinChoiceSampler> ArrivalModel::make_sampler(
    std::uint32_t n) const {
  if (skew == BinSkew::kUniform) return nullptr;
  return std::make_unique<ZipfBinSampler>(n, zipf_s);
}

}  // namespace iba::scenario
