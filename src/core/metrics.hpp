// Per-round metrics emitted by every allocation process, plus the
// cumulative waiting-time recorder. These are the observables the paper's
// evaluation (Figures 4 and 5) is built from.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/int_moments.hpp"
#include "stats/welford.hpp"

namespace iba::core {

/// Snapshot of what happened in one round of an infinite allocation
/// process. All counts refer to that round; pool/load fields are
/// end-of-round state.
struct RoundMetrics {
  std::uint64_t round = 0;
  std::uint64_t generated = 0;  ///< new balls created this round
  std::uint64_t thrown = 0;     ///< balls that sampled a bin (pool + new)
  std::uint64_t accepted = 0;   ///< balls accepted into a bin buffer
  std::uint64_t deleted = 0;    ///< balls deleted (served) this round
  std::uint64_t pool_size = 0;  ///< unallocated balls at end of round
  std::uint64_t total_load = 0; ///< balls stored in bins at end of round
  std::uint64_t max_load = 0;   ///< fullest bin at end of round
  std::uint32_t empty_bins = 0; ///< bins with zero load at end of round

  std::uint64_t wait_count = 0; ///< deleted balls contributing wait stats
  double wait_sum = 0.0;        ///< sum of their waiting times
  std::uint64_t wait_max = 0;   ///< max waiting time among them

  std::uint64_t requeued = 0;       ///< balls returned to the pool by
                                    ///< crashing bins this round
  std::uint64_t oldest_pool_age = 0;///< age of the oldest unallocated ball
                                    ///< at end of round (starvation depth)

  std::uint64_t shed = 0;        ///< arrivals dropped by backpressure
                                 ///< this round (kShed only)
  std::uint64_t deferred = 0;    ///< balls waiting out a retry backoff at
                                 ///< end of round (kDeferRetry only)
  std::uint64_t faulted_bins = 0;///< bins under an injected fault (down,
                                 ///< draining, or straggling) this round
};

/// A wait recorder's exact state — integer moments (Σw² split into
/// 64-bit halves) plus the dyadic histogram — as snapshots and
/// distributed round results carry it, so a rebuilt recorder continues
/// the cumulative waiting-time statistics bit for bit.
struct CappedWaitState {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t sumsq_hi = 0;
  std::uint64_t sumsq_lo = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> histogram;  ///< Log2Histogram counts
};

/// Accumulates the waiting times of every deleted ball over a run:
/// moments for the average, a dyadic histogram for tail quantiles, and
/// the exact maximum.
class WaitRecorder {
 public:
  void record(std::uint64_t wait) noexcept {
    moments_.add(wait);
    histogram_.add(wait);
  }

  /// `weight` balls that each waited `wait` rounds; equals `weight` calls
  /// of record(wait). A zero weight records nothing (not even the
  /// histogram's width or maximum).
  void record(std::uint64_t wait, std::uint64_t weight) noexcept {
    if (weight == 0) return;
    moments_.add(wait, weight);
    histogram_.add(wait, weight);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return moments_.count();
  }
  [[nodiscard]] double mean() const noexcept { return moments_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return moments_.stddev(); }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return histogram_.max();
  }
  /// Upper bound (within a factor of two) on the q-quantile.
  [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const noexcept {
    return histogram_.quantile_upper_bound(q);
  }

  [[nodiscard]] const stats::UintMoments& moments() const noexcept {
    return moments_;
  }
  [[nodiscard]] const stats::Log2Histogram& histogram() const noexcept {
    return histogram_;
  }

  /// Adds another recorder's samples. Exact and order-independent (the
  /// moments and histogram are integer sums), so per-shard recorders
  /// merged in any order equal one recorder fed every sample.
  void merge(const WaitRecorder& other) {
    moments_.merge(other.moments_);
    histogram_.merge(other.histogram_);
  }

  void reset() noexcept {
    moments_.reset();
    histogram_ = stats::Log2Histogram{};
  }

 private:
  friend WaitRecorder wait_recorder(const CappedWaitState& state);

  // Exact integer accumulation (Σw in 64 bits, Σw² in 128): cheap on
  // the per-deleted-ball hot path — no serial FP dependency chain — and
  // order-independent, which lets the fused bin-major kernel record
  // waits mid-sweep and still match the scalar path bit for bit.
  stats::UintMoments moments_;
  stats::Log2Histogram histogram_;
};

/// The exact state of a wait recorder.
[[nodiscard]] inline CappedWaitState wait_state(const WaitRecorder& waits) {
  return {waits.moments().count(),    waits.moments().sum(),
          waits.moments().sumsq_hi(), waits.moments().sumsq_lo(),
          waits.histogram().max(),    waits.histogram().counts()};
}

/// The inverse of wait_state(): a recorder holding exactly `state`, so
/// one rebuilt from wait_state(w) continues where w left off.
[[nodiscard]] inline WaitRecorder wait_recorder(const CappedWaitState& state) {
  WaitRecorder waits;
  waits.moments_ = stats::UintMoments::from_parts(
      state.count, state.sum, state.sumsq_hi, state.sumsq_lo);
  waits.histogram_ =
      stats::Log2Histogram::from_counts(state.histogram, state.max);
  return waits;
}

}  // namespace iba::core
