// Log2Histogram — a counting histogram with one bin per power of two; the
// natural shape for waiting-time tails (compact, O(64) state, exact
// counts per dyadic range).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace iba::stats {

/// Histogram of non-negative integers with one bin per power of two:
/// bin 0 holds value 0, bin k ≥ 1 holds values in [2^(k−1), 2^k).
class Log2Histogram {
 public:
  void add(std::uint64_t value, std::uint64_t weight = 1) noexcept {
    const std::size_t bin =
        value == 0 ? 0 : static_cast<std::size_t>(64 - std::countl_zero(value));
    if (bin >= counts_.size()) counts_.resize(bin + 1, 0);
    counts_[bin] += weight;
    total_ += weight;
    if (value > max_) max_ = value;
  }

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const noexcept {
    return bin < counts_.size() ? counts_[bin] : 0;
  }
  /// Smallest value belonging to `bin`.
  [[nodiscard]] static std::uint64_t bin_lo(std::size_t bin) noexcept {
    return bin == 0 ? 0 : std::uint64_t{1} << (bin - 1);
  }
  /// One past the largest value belonging to `bin`.
  [[nodiscard]] static std::uint64_t bin_hi(std::size_t bin) noexcept {
    return std::uint64_t{1} << bin;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

  /// Upper bound on the q-quantile: the top edge of the bin in which the
  /// q-quantile falls (exact to within a factor of 2).
  [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const noexcept {
    IBA_ASSERT(q >= 0.0 && q <= 1.0);
    if (total_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
      seen += counts_[bin];
      if (seen >= rank) return bin == 0 ? 0 : bin_hi(bin) - 1;
    }
    return max_;
  }

  /// Raw per-bin counts, for serialization (checkpointing).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

  /// Rebuilds a histogram from serialized state. `total` is implied by
  /// the counts (add() keeps them in lockstep); `max` is not and must be
  /// supplied.
  [[nodiscard]] static Log2Histogram from_counts(
      std::vector<std::uint64_t> counts, std::uint64_t max) {
    Log2Histogram h;
    h.counts_ = std::move(counts);
    h.total_ = 0;
    for (const std::uint64_t c : h.counts_) h.total_ += c;
    h.max_ = max;
    return h;
  }

  void merge(const Log2Histogram& other) {
    if (other.counts_.size() > counts_.size())
      counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
      counts_[i] += other.counts_[i];
    total_ += other.total_;
    if (other.max_ > max_) max_ = other.max_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace iba::stats
