// Ball-lifecycle span tracing: deterministic sampled per-ball traces.
//
// The paper's central quantity is per-ball — the waiting time of a ball
// from generation to deletion (Theorems 1–2) — but a registry only shows
// aggregates. A BallTracer follows a *sampled subset* of balls through
// their whole lifecycle and emits one BallSpan per serviced ball:
//
//   arrival round, every failed throw (target bin + load at rejection),
//   the accepting bin and queue position, crash-requeues, and the
//   service round — with the waiting time decomposed into pool time
//   (rounds spent re-throwing) and bin-queue time (rounds enqueued).
//
// Sampling is decided by a stable hash of the ball id (its global
// generation sequence number) mixed with the master seed, so identical
// seeds reproduce byte-identical span streams across runs — the same
// determinism guarantee the registry gives.
//
// Shadow tracking. core::Capped stores balls as indistinguishable
// age-bucketed counts, so the tracer reconstructs identity from the event
// stream alone: it observes *every* throw/delete/requeue in simulation
// order and tracks sampled balls by their position within their age
// bucket. The position convention (a valid resolution of the paper's
// "ties arbitrary") is:
//   * arrivals occupy positions 0..count-1 of the new bucket in id order;
//   * throws visit a bucket's balls in position order, and rejected balls
//     re-enter the next round's bucket in throw order;
//   * crash-requeued balls append after that round's rejected survivors
//     of the same label, in (bin, pop) order.
// Every convention is deterministic, so the emitted spans are too.
//
// Memory is bounded: completed spans live in a ring (drop-and-count on
// overflow), active spans are capped (sampled arrivals beyond the cap are
// skipped and counted). With no tracer attached, each hook in
// core::Capped costs one null-pointer test.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/round_trace.hpp"

namespace iba::telemetry {

/// Failed-throw cap per span: attempts beyond this are counted in
/// failed_throws but not individually recorded, keeping BallSpan a
/// fixed-size trivially copyable record (ring/wire friendly).
inline constexpr std::uint32_t kSpanAttemptCap = 8;

/// One recorded rejection: the round, the sampled bin, and its load at
/// the moment of rejection (== capacity, recorded for self-description).
struct SpanAttempt {
  std::uint64_t round = 0;
  std::uint32_t bin = 0;
  std::uint32_t load = 0;
};

/// A completed ball lifecycle. Invariants (crash-free and crashing runs):
///   pool_rounds + bin_rounds == service_round - arrival_round  (the wait)
///   throws == failed_throws + requeues + 1
struct BallSpan {
  std::uint64_t ball_id = 0;        ///< global generation sequence number
  std::uint64_t arrival_round = 0;  ///< generation round (the pool label)
  std::uint64_t accept_round = 0;   ///< round of the *last* acceptance
  std::uint64_t service_round = 0;  ///< round the ball was deleted
  std::uint64_t pool_rounds = 0;    ///< rounds spent in the pool
  std::uint64_t bin_rounds = 0;     ///< rounds spent queued in bins
  std::uint32_t accept_bin = 0;     ///< bin that (last) accepted the ball
  std::uint32_t queue_depth = 0;    ///< queue position at last acceptance
  std::uint32_t throws = 0;         ///< total bin samples by this ball
  std::uint32_t failed_throws = 0;  ///< rejections (bin full)
  std::uint32_t requeues = 0;       ///< crash-requeues back into the pool
  std::uint32_t recorded_failed = 0;  ///< entries used in failed[]
  SpanAttempt failed[kSpanAttemptCap]{};

  /// Total waiting time, the paper's W.
  [[nodiscard]] std::uint64_t wait() const noexcept {
    return service_round - arrival_round;
  }
};

static_assert(std::is_trivially_copyable_v<BallSpan>,
              "BallSpan rides SpscRing and must be trivially copyable");

using SpanRing = SpscRing<BallSpan>;

/// Writes one span as a single JSON line (the /spans and --trace-spans
/// format documented in docs/TELEMETRY.md).
void write_span_json(const BallSpan& span, std::ostream& out);

struct BallTraceConfig {
  std::uint64_t seed = 0;        ///< master seed; mixes into the sampler
  double sample_rate = 0.01;     ///< fraction of balls traced, [0, 1]
  std::size_t completed_capacity = 4096;  ///< completed-span ring bound
  std::size_t max_active = 1 << 16;       ///< in-flight span bound
};

/// Observer attached to core::Capped via set_ball_tracer(). Not
/// thread-safe: one tracer per process instance, driven from the
/// simulation thread; consumers read completed() between steps or tail
/// the live ring.
class BallTracer {
 public:
  explicit BallTracer(const BallTraceConfig& config);

  // ---- hooks, called by core::Capped in simulation order ----

  /// `count` balls generated this round; their ids are
  /// first_ball_id .. first_ball_id + count - 1.
  void on_arrivals(std::uint64_t round, std::uint64_t first_ball_id,
                   std::uint64_t count);
  /// A ball of age bucket `label` sampled `bin`; `load` is the bin's
  /// load before the decision (the queue position when accepted, the
  /// rejection load — i.e. the capacity — when not).
  void on_throw(std::uint64_t label, std::uint32_t bin, std::uint64_t load,
                bool accepted);
  /// The ball at queue `position` of `bin` (label `label`) was serviced.
  void on_delete(std::uint32_t bin, std::uint64_t label,
                 std::uint64_t position);
  /// `bin` crashed and pops its front ball (label `label`) back into the
  /// pool. Called once per requeued ball, bins in index order.
  void on_requeue(std::uint32_t bin, std::uint64_t label);
  /// End of the round's bookkeeping; rolls the pool shadow forward.
  void on_round_end(std::uint64_t round);

  // ---- results ----

  /// Completed spans in completion order, oldest first (bounded by
  /// completed_capacity; see dropped()).
  [[nodiscard]] const std::deque<BallSpan>& completed() const noexcept {
    return completed_;
  }
  /// Completed spans evicted from the buffer to stay within bounds.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Lifetime counts, never reset by clear_completed(): sampled arrivals,
  /// sampled arrivals skipped at the max_active bound, spans completed.
  [[nodiscard]] std::uint64_t sampled_arrivals() const noexcept {
    return sampled_arrivals_;
  }
  [[nodiscard]] std::uint64_t skipped_samples() const noexcept {
    return skipped_samples_;
  }
  [[nodiscard]] std::uint64_t completed_total() const noexcept {
    return completed_total_;
  }
  /// Spans currently in flight (arrived, not yet serviced).
  [[nodiscard]] std::uint64_t active_count() const noexcept {
    return slots_.size() - free_slots_.size();
  }
  /// Wait decomposition over completed spans since the last
  /// clear_completed(): rounds in the pool vs. rounds queued in a bin.
  [[nodiscard]] const DyadicHistogram& pool_wait() const noexcept {
    return pool_wait_;
  }
  [[nodiscard]] const DyadicHistogram& bin_wait() const noexcept {
    return bin_wait_;
  }

  /// Drops buffered spans and measurement histograms (e.g. after
  /// burn-in); in-flight spans and lifetime counters are kept.
  void clear_completed();

  /// Attaches an SPSC ring that every completed span is also pushed to
  /// (live tailing; drops are counted by the ring). nullptr detaches.
  void set_live_ring(SpanRing* ring) noexcept { live_ring_ = ring; }

  /// The sampling decision for a ball id — stable across runs: a ball is
  /// traced iff splitmix64(ball_id ^ mix(seed)) falls under the rate.
  [[nodiscard]] bool is_sampled(std::uint64_t ball_id) const noexcept {
    return sample_all_ ||
           (threshold_ != 0 &&
            rng_hash(ball_id ^ seed_mix_) < threshold_);
  }

  [[nodiscard]] const BallTraceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct PoolEntry {
    std::uint64_t position;  ///< index within the age bucket
    std::uint32_t slot;
  };
  struct BinEntry {
    std::uint64_t depth;  ///< current queue position, 0 = front
    std::uint32_t slot;
  };
  struct ActiveSpan {
    BallSpan span;
    std::uint64_t stint_start = 0;  ///< round the current pool stint began
    std::uint64_t last_accept = 0;  ///< round of the last acceptance
  };

  static std::uint64_t rng_hash(std::uint64_t x) noexcept;

  void switch_label(std::uint64_t label);
  void flush_cursor();
  std::uint32_t alloc_slot();
  void complete_span(std::uint32_t slot, std::uint64_t label);
  std::vector<BinEntry>& bin_entries(std::uint32_t bin);

  BallTraceConfig config_;
  std::uint64_t seed_mix_;
  std::uint64_t threshold_;
  bool sample_all_;
  bool enabled_;  ///< false when the rate traces nothing — hooks no-op

  std::uint64_t round_ = 0;

  // Shadow state: sampled balls by position in their pool bucket / bin
  // queue. Vectors are kept sorted by position/depth.
  std::map<std::uint64_t, std::vector<PoolEntry>> pool_shadow_;
  std::map<std::uint64_t, std::vector<PoolEntry>> next_pool_;
  std::vector<std::vector<BinEntry>> bin_shadow_;
  std::vector<ActiveSpan> slots_;
  std::vector<std::uint32_t> free_slots_;

  // Throw-phase cursor: buckets arrive label by label, so per-ball work
  // is counter increments, not map lookups.
  bool cursor_active_ = false;
  std::uint64_t cur_label_ = 0;
  std::uint64_t cur_thrown_ = 0;
  std::uint64_t cur_rejected_ = 0;
  const std::vector<PoolEntry>* cur_entries_ = nullptr;
  std::size_t cur_entry_idx_ = 0;
  std::map<std::uint64_t, std::uint64_t> rejected_total_;   // per-round
  std::map<std::uint64_t, std::uint64_t> requeued_so_far_;  // per-round

  std::deque<BallSpan> completed_;
  SpanRing* live_ring_ = nullptr;
  std::uint64_t dropped_ = 0;
  std::uint64_t sampled_arrivals_ = 0;
  std::uint64_t skipped_samples_ = 0;
  std::uint64_t completed_total_ = 0;
  DyadicHistogram pool_wait_;
  DyadicHistogram bin_wait_;
};

/// Folds a tracer's measurement aggregates into a registry under the
/// span_* metric names (see docs/TELEMETRY.md). Deterministic given the
/// tracer state, so replica merging stays thread-count invariant.
void record_ball_trace(Registry& registry, const BallTracer& tracer);

}  // namespace iba::telemetry
