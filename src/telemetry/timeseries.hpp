// Bounded per-round time series: the trajectory the aggregates flatten.
//
// A TimeSeries ingests one TimeSeriesSample per simulation round and
// keeps a columnar history in three power-of-two downsampling tiers —
// full cadence (1×), 16×, and 256× — each a fixed-capacity ring, so a
// million-round run records its whole shape in a few hundred KB: the
// recent past at full resolution, the older past progressively coarser.
//
// Determinism contract (the same one the registry keeps): samples carry
// only simulation-deterministic values — counts, loads, dyadic wait
// bounds, fixed-point λ̂ — never wall-clock, and folding is exact
// integer arithmetic. For a fixed (scenario, seed) the retained contents
// and every rendered byte are identical across the scalar / fused /
// sharded kernels and across kill-and-resume (state_text()/
// restore_state() round-trip the full ring + fold state through the
// checkpoint's `.record` sidecar).
//
// Per-column folding when 16 finer samples collapse into one coarser
// sample (and when `cadence` rounds collapse into one tier-0 sample):
//   kLast — gauges (pool depth, capacity, λ̂): the newest value wins;
//   kSum  — flows (generated, deleted, shed, requeued): exact sums, so
//           any tier integrates a flow over its covered rounds exactly
//           (tested: tier sums == full-resolution sums);
//   kMax  — peaks (max load, faulted bins): the window maximum.
//
// Rendered text (render_text / render_window) stores each column as its
// first value followed by signed deltas — long near-constant series
// (capacity, λ̂ in steady state) compress to runs of "+0" — while the
// in-memory rings stay raw u64 for O(1) ingestion.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace iba::telemetry {

/// One round's worth of simulation state, built by the process at the
/// end of step(). Plain integers only: λ̂ rides as a ×10⁶ fixed-point
/// value and the wait quantiles are the dyadic upper bounds, so a
/// sample is a pure function of simulation state.
struct TimeSeriesSample {
  std::uint64_t round = 0;
  std::uint64_t pool_size = 0;
  std::uint64_t total_load = 0;
  std::uint64_t max_load = 0;
  std::uint64_t generated = 0;
  std::uint64_t deleted = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t requeued = 0;
  std::uint64_t faulted_bins = 0;
  std::uint64_t capacity = 0;
  std::uint64_t lambda_hat_micro = 0;  ///< λ̂ (EWMA) × 10⁶, 0 w/o control
  std::uint64_t control_changes = 0;   ///< cumulative applied decisions
  std::uint64_t wait_p50 = 0;          ///< dyadic upper bounds over the
  std::uint64_t wait_p95 = 0;          ///< recorder's current window
  std::uint64_t wait_p99 = 0;
};

struct TimeSeriesConfig {
  /// Rounds folded into one tier-0 sample (1 = every round).
  std::uint64_t cadence = 1;
  /// Samples retained per tier (ring capacity).
  std::uint64_t tier_capacity = 512;
};

class TimeSeries {
 public:
  static constexpr int kTiers = 3;
  static constexpr std::uint64_t kFold = 16;  ///< tier t+1 = 16 × tier t
  static constexpr std::size_t kColumns = 16;

  enum class Agg : std::uint8_t { kLast, kSum, kMax };

  /// Column order of a stored sample; parallel to column_aggs().
  [[nodiscard]] static const std::array<const char*, kColumns>&
  column_names() noexcept;
  [[nodiscard]] static const std::array<Agg, kColumns>&
  column_aggs() noexcept;

  explicit TimeSeries(TimeSeriesConfig config = {});

  /// Ingests one completed round. O(kColumns); no allocation after
  /// construction.
  void observe(const TimeSeriesSample& sample) noexcept;

  [[nodiscard]] const TimeSeriesConfig& config() const noexcept {
    return config_;
  }
  /// Rounds ingested so far.
  [[nodiscard]] std::uint64_t rounds_observed() const noexcept {
    return rounds_;
  }
  /// Samples ever emitted into `tier` (retained = min(this, capacity)).
  [[nodiscard]] std::uint64_t tier_emitted(int tier) const noexcept;
  [[nodiscard]] std::uint64_t tier_retained(int tier) const noexcept;
  /// Rounds covered by one sample of `tier`: cadence · 16^tier.
  [[nodiscard]] std::uint64_t tier_stride(int tier) const noexcept;
  /// Retained values of one column, oldest first.
  [[nodiscard]] std::vector<std::uint64_t> column(int tier,
                                                  std::size_t col) const;

  /// Full rendered series: header + every tier, columns delta-encoded.
  [[nodiscard]] std::string render_text() const;
  /// Only the newest `last_k` tier-0 samples (the flight recorder's
  /// full-resolution postmortem window).
  [[nodiscard]] std::string render_window(std::uint64_t last_k) const;

  /// Complete state (rings + fold accumulators + counters) as key=value
  /// text, for the checkpoint's `.record` sidecar.
  [[nodiscard]] std::string state_text() const;
  /// Restores a state_text() capture. Throws std::runtime_error on
  /// malformed input or a cadence/capacity mismatch.
  void restore_state(const std::string& text);

  void reset() noexcept;

 private:
  void fold_into(int tier, const std::array<std::uint64_t, kColumns>& row)
      noexcept;
  void emit(int tier) noexcept;

  TimeSeriesConfig config_;
  std::uint64_t rounds_ = 0;
  // Ring storage, row-major: data_[t][(i % cap) * kColumns + col] holds
  // column `col` of the i-th sample ever emitted into tier t.
  std::array<std::vector<std::uint64_t>, kTiers> data_;
  std::array<std::uint64_t, kTiers> emitted_{};
  // Fold accumulators: pending_[t] aggregates the next sample of tier t
  // (t = 0 folds `cadence` rounds; t ≥ 1 folds kFold tier-(t−1) samples).
  std::array<std::array<std::uint64_t, kColumns>, kTiers> pending_{};
  std::array<std::uint64_t, kTiers> pending_count_{};
};

}  // namespace iba::telemetry
