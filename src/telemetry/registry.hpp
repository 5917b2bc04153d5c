// Metrics registry: named counters, gauges, and dyadic histograms.
//
// A Registry hands out stable references to its instruments, so hot loops
// resolve a name once and then pay one integer add per event. Instruments
// live in name-ordered maps, which makes iteration — and therefore every
// exporter and merge — deterministic. With IBA_TELEMETRY_ENABLED=0 the
// registry stores nothing and every mutation compiles to a no-op.
//
// Merge semantics (used to combine per-thread registries):
//   counters    — sum
//   gauges      — elementwise max (a merged gauge reads as the peak)
//   histograms  — bucketwise sum; sum/max combine exactly
// Merging is commutative for counters/gauges/histogram buckets, but
// floating-point sums are not associative: callers that need identical
// exported bytes regardless of thread count merge in a fixed order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "stats/histogram.hpp"
#include "telemetry/telemetry_config.hpp"

namespace iba::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
#if IBA_TELEMETRY_ENABLED
    value_ += delta;
#else
    (void)delta;
#endif
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (last value wins; the peak is kept too).
class Gauge {
 public:
  void set(double value) noexcept {
#if IBA_TELEMETRY_ENABLED
    value_ = value;
    if (!set_ || value > max_) max_ = value;
    set_ = true;
#else
    (void)value;
#endif
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merged gauges read as the elementwise max across inputs.
  void merge(const Gauge& other) noexcept {
    if (!other.set_) return;
    if (!set_ || other.value_ > value_) value_ = other.value_;
    if (!set_ || other.max_ > max_) max_ = other.max_;
    set_ = true;
  }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  bool set_ = false;
};

/// Histogram of non-negative integers with one bucket per power of two
/// (reusing stats::Log2Histogram), plus the exact sum for mean/Prometheus
/// `_sum`. O(64) state, O(1) observe.
///
/// The dyadic range is configurable through `shift`: values are bucketed
/// at a granularity of 2^shift, so bucket k covers
/// [2^(k−1+shift), 2^(k+shift)). shift = 0 (the default) is the exact
/// layout of the paper's waiting-time analysis; a nanosecond series
/// recorded with shift = 10 buckets at ~µs resolution without growing
/// past 64 buckets. Two histograms with different shifts place the same
/// value in different buckets, so merging them would silently misalign —
/// merge() therefore requires identical shifts (see Registry::merge for
/// the named-metric error).
class DyadicHistogram {
 public:
  DyadicHistogram() noexcept = default;
  explicit DyadicHistogram(std::uint32_t shift) noexcept : shift_(shift) {}

  void observe(std::uint64_t value, std::uint64_t weight = 1) noexcept {
#if IBA_TELEMETRY_ENABLED
    hist_.add(value >> shift_, weight);
    sum_ += static_cast<double>(value) * static_cast<double>(weight);
    if (value > max_) max_ = value;
#else
    (void)value;
    (void)weight;
#endif
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return hist_.total(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint32_t shift() const noexcept { return shift_; }
  [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const noexcept {
    const std::uint64_t bound = hist_.quantile_upper_bound(q);
    return shift_ == 0 ? bound : ((bound + 1) << shift_) - 1;
  }
  [[nodiscard]] const stats::Log2Histogram& buckets() const noexcept {
    return hist_;
  }

  /// True when `other`'s buckets mean the same value ranges as ours, i.e.
  /// bucketwise addition is meaningful.
  [[nodiscard]] bool layout_compatible(
      const DyadicHistogram& other) const noexcept {
    return shift_ == other.shift_;
  }

  /// Absorbs an externally accumulated Log2Histogram whose value sum is
  /// `value_sum` (e.g. a WaitRecorder's histogram plus its wait total).
  /// Raw Log2Histograms are always unshifted, so this requires shift == 0.
  void merge_log2(const stats::Log2Histogram& other, double value_sum) {
#if IBA_TELEMETRY_ENABLED
    IBA_EXPECT(shift_ == 0,
               "DyadicHistogram: merge_log2 into a shifted histogram would "
               "misalign dyadic buckets");
    hist_.merge(other);
    sum_ += value_sum;
    if (other.max() > max_) max_ = other.max();
#else
    (void)other;
    (void)value_sum;
#endif
  }

  /// Bucketwise sum. Throws ContractViolation when the bucket layouts
  /// (dyadic shifts) differ — the counts would land in the wrong ranges.
  void merge(const DyadicHistogram& other) {
#if IBA_TELEMETRY_ENABLED
    IBA_EXPECT(layout_compatible(other),
               "DyadicHistogram: cannot merge histograms with different "
               "dyadic shifts (" + std::to_string(shift_) + " vs " +
                   std::to_string(other.shift_) + ")");
    hist_.merge(other.hist_);
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
#else
    (void)other;
#endif
  }

 private:
  stats::Log2Histogram hist_;
  double sum_ = 0.0;
  std::uint64_t max_ = 0;
  std::uint32_t shift_ = 0;
};

/// Named instrument store. counter()/gauge()/histogram() create on first
/// use and return references that stay valid for the registry's lifetime
/// (node-based maps). Not thread-safe; see concurrency notes in
/// docs/TELEMETRY.md and SharedRegistry for cross-thread merging.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  DyadicHistogram& histogram(std::string_view name);
  /// Resolves `name` as a histogram with the given dyadic shift, creating
  /// it on first use. Throws ContractViolation when the instrument
  /// already exists with a different shift — one name must mean one
  /// bucket layout.
  DyadicHistogram& histogram(std::string_view name, std::uint32_t shift);

  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using GaugeMap = std::map<std::string, Gauge, std::less<>>;
  using HistogramMap = std::map<std::string, DyadicHistogram, std::less<>>;

  [[nodiscard]] const CounterMap& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GaugeMap& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const noexcept {
    return histograms_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds `other` in under the semantics documented above. Instruments
  /// present only in `other` are created here (histograms keep their
  /// dyadic shift). Throws ContractViolation — naming the metric — when
  /// a histogram exists on both sides with different bucket layouts,
  /// instead of silently misaligning the counts.
  void merge(const Registry& other);

  void clear() noexcept;

 private:
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
};

}  // namespace iba::telemetry
