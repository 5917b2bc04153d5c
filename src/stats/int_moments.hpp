// Exact online moments for unsigned-integer samples.
//
// Accumulates count, Σx and Σx² in integer registers — Σx in 64 bits,
// Σx² in 128 — so accumulation never rounds and is therefore
// order-independent. That is the property that lets the range kernel
// (core/range_kernel.cpp) record waiting times in the middle of its
// chunked sweep and still match the scalar path bit for bit. It
// also removes Welford's per-sample serial division chain from the
// per-deleted-ball hot path: variance is derived from the exact integer
// sums only at query time, and a run of equal samples is one weighted
// add().
#pragma once

#include <cmath>
#include <cstdint>

namespace iba::stats {

/// Single-pass exact accumulator for mean/variance of uint64 samples.
/// Merging two accumulators equals accumulating the concatenated
/// samples (integer sums commute). Exact as long as n·Σx² < 2^128 —
/// e.g. 2^40 samples of values up to 2^40, far beyond any
/// waiting-time run.
class UintMoments {
 public:
  __extension__ using Uint128 = unsigned __int128;

  void add(std::uint64_t x) noexcept {
    ++count_;
    sum_ += x;
    sumsq_ += static_cast<Uint128>(x) * x;
  }

  /// `weight` samples of value x at once; equals `weight` calls of
  /// add(x), wraparound included (the sums are modular either way).
  void add(std::uint64_t x, std::uint64_t weight) noexcept {
    count_ += weight;
    sum_ += x * weight;
    sumsq_ += static_cast<Uint128>(x) * x * weight;
  }

  void merge(const UintMoments& other) noexcept {
    count_ += other.count_;
    sum_ += other.sum_;
    sumsq_ += other.sumsq_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Σx² halves, for serialization (checkpointing) without a 128-bit
  /// text representation.
  [[nodiscard]] std::uint64_t sumsq_hi() const noexcept {
    return static_cast<std::uint64_t>(sumsq_ >> 64);
  }
  [[nodiscard]] std::uint64_t sumsq_lo() const noexcept {
    return static_cast<std::uint64_t>(sumsq_);
  }

  /// Rebuilds an accumulator from serialized state (inverse of count()/
  /// sum()/sumsq_hi()/sumsq_lo()).
  [[nodiscard]] static UintMoments from_parts(std::uint64_t count,
                                              std::uint64_t sum,
                                              std::uint64_t sumsq_hi,
                                              std::uint64_t sumsq_lo) noexcept {
    UintMoments m;
    m.count_ = count;
    m.sum_ = sum;
    m.sumsq_ = (static_cast<Uint128>(sumsq_hi) << 64) | sumsq_lo;
    return m;
  }

  [[nodiscard]] double mean() const noexcept {
    return count_ > 0
               ? static_cast<double>(sum_) / static_cast<double>(count_)
               : 0.0;
  }

  /// Population variance (divides by n).
  [[nodiscard]] double variance() const noexcept {
    if (count_ == 0) return 0.0;
    const double n = static_cast<double>(count_);
    return scaled_m2() / (n * n);
  }

  /// Sample variance (divides by n − 1); 0 for fewer than two samples.
  [[nodiscard]] double sample_variance() const noexcept {
    if (count_ < 2) return 0.0;
    const double n = static_cast<double>(count_);
    return scaled_m2() / (n * (n - 1.0));
  }

  [[nodiscard]] double stddev() const noexcept {
    return std::sqrt(sample_variance());
  }

  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept {
    return count_ > 0 ? stddev() / std::sqrt(static_cast<double>(count_))
                      : 0.0;
  }

  void reset() noexcept { *this = UintMoments{}; }

 private:
  /// n·Σx² − (Σx)² = n²·variance, computed exactly in 128-bit integers —
  /// non-negative by Cauchy–Schwarz, and no cancellation before the
  /// single rounding to double.
  [[nodiscard]] double scaled_m2() const noexcept {
    const Uint128 n_sumsq = static_cast<Uint128>(count_) * sumsq_;
    const Uint128 sum_sq = static_cast<Uint128>(sum_) * sum_;
    return static_cast<double>(n_sumsq - sum_sq);
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  Uint128 sumsq_ = 0;
};

}  // namespace iba::stats
