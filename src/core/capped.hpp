// CAPPED(c, λ) — the paper's primary contribution (Algorithm 1).
//
// Per round: λn new balls join the pool; every pool ball samples one bin
// independently and uniformly at random; each bin accepts the oldest
// min{c − ℓ, ν} of its ν requests (ties arbitrary); at the end of the
// round every non-empty bin deletes the ball at the front of its FIFO
// queue. A ball's waiting time is its age when deleted.
//
// Implementation notes:
//  * Balls are indistinguishable except for their generation round, so
//    the pool is age-bucketed (AgedPool). Iterating buckets oldest-first
//    while bins accept greedily until full realizes exactly "each bin
//    accepts the oldest min{c − ℓ, ν} requests": a younger ball is never
//    accepted by a bin that rejected an older request in the same round.
//    tests/core_capped_oracle_test.cpp checks this against an independent
//    explicit-ball implementation, trajectory for trajectory.
//  * c ranges over [1, 65535], the bin table's packed 16-bit queue
//    length. The c = ∞ limit is the batch GREEDY[1] of [PODC'16]: run
//    core::BatchGreedy with d = 1 (core/greedy.hpp) for it.
//  * step_with_choices() lets callers supply the bin choices, which is
//    how the MODCAPPED coupling (Lemma 6) and the oracle tests drive two
//    processes with shared randomness.
//  * Capped is the bin half of the round. The pool half — control,
//    arrivals, admission, the pool, waits, totals and the snapshot's
//    non-bin fields — is a core::PoolSide (core/pool_side.hpp), the
//    same one dist::Coordinator holds.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "concurrency/thread_pool.hpp"
#include "control/controller.hpp"
#include "core/fault_hooks.hpp"
#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "core/pool_side.hpp"
#include "core/process.hpp"
#include "core/arena.hpp"
#include "core/range_kernel.hpp"
#include "queueing/aged_pool.hpp"
#include "queueing/bin_table.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/timeseries.hpp"

namespace iba::telemetry {
class BallTracer;
}  // namespace iba::telemetry

namespace iba::core {

/// The CAPPED(c, λ) process. Deterministic given (config, engine).
class Capped {
 public:
  Capped(const CappedConfig& config, Engine engine);

  /// Resumes from a snapshot: identical future trajectory to the
  /// process the snapshot was taken from, with the cumulative wait
  /// statistics continued bit-for-bit.
  explicit Capped(const CappedSnapshot& snapshot);

  Capped(Capped&&) = default;
  /// Not assignable: the bin table and kernel scratch point at this
  /// process's arena, which assignment would free under them.
  Capped& operator=(Capped&&) = delete;

  /// Captures the complete dynamic state (O(n·c + pool)).
  [[nodiscard]] CappedSnapshot snapshot() const;

  /// The master engine's state, as snapshot().engine_state holds it,
  /// without copying the bins.
  [[nodiscard]] std::array<std::uint64_t, 4> engine_state() const noexcept {
    return side_.engine().state();
  }

  /// Advances one round, drawing bin choices from the internal engine.
  RoundMetrics step();

  /// Advances one round using caller-provided bin choices, one per thrown
  /// ball in pool order (oldest bucket first; query balls_to_throw()
  /// for the required count *before* calling). Requires deterministic
  /// arrivals — with stochastic models the throw count is not knowable
  /// in advance — and no fault plan or backpressure (both change the
  /// thrown count in ways the coupling callers cannot anticipate).
  RoundMetrics step_with_choices(std::span<const std::uint32_t> choices);

  /// Number of balls that will sample bins in the *next* round
  /// (current pool + the λn arrivals of that round). Exact for
  /// deterministic arrivals; the expectation otherwise.
  [[nodiscard]] std::uint64_t balls_to_throw() const noexcept {
    return pool_size() + lambda_n();
  }

  [[nodiscard]] std::uint32_t n() const noexcept { return config().n; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return config().capacity;
  }
  [[nodiscard]] double lambda() const noexcept { return config().lambda(); }
  [[nodiscard]] std::uint64_t lambda_n() const noexcept {
    return config().lambda_n;
  }

  /// The allocation counter behind the bin table and the kernel
  /// scratch. Exposed for allocation-steadiness checks: after warm-up,
  /// a round must not grow allocation_count().
  [[nodiscard]] const Arena& arena() const noexcept { return *arena_; }

  /// Changes the arrival rate for subsequent rounds (time-varying load,
  /// e.g. diurnal patterns). Takes effect from the next step().
  void set_lambda_n(std::uint64_t lambda_n) { side_.set_lambda_n(lambda_n); }

  /// Retunes the per-bin capacity for subsequent rounds (the adaptive
  /// controller's actuator; also callable directly for scripted
  /// capacity schedules). Growth is instantaneous — the backing storage
  /// widens if needed and every bin accepts up to the new c from the
  /// next round. Shrink is drain-based: storage is untouched, bins
  /// whose load exceeds the new c simply accept nothing until the
  /// regular one-per-round deletions bring them at or below it, so the
  /// overfull load is monotone non-increasing and no ball is ever
  /// dropped or reshuffled.
  void set_capacity(std::uint32_t capacity);

  /// Retunes the admission pool bound (the controller's second
  /// actuator). Requires a backpressure mode; takes effect at the next
  /// round's admission.
  void set_pool_limit(std::uint64_t pool_limit) {
    side_.set_pool_limit(pool_limit);
  }

  /// The adaptive controller, when config().control is enabled
  /// (read-only: decisions, estimator, counters). Null otherwise.
  [[nodiscard]] const control::Controller* controller() const noexcept {
    return side_.controller();
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return side_.round(); }
  [[nodiscard]] std::uint64_t pool_size() const noexcept {
    return pool().total();
  }
  [[nodiscard]] const queueing::AgedPool& pool() const noexcept {
    return side_.pool();
  }

  /// End-of-round load of bin `i`.
  [[nodiscard]] std::uint64_t load(std::uint32_t i) const noexcept {
    return bins_.load(i);
  }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return bins_.total_load();
  }

  /// Attaches (or detaches, with nullptr) a phase-timer sink: subsequent
  /// steps credit their throw / accept / delete sections to it. With no
  /// sink attached the instrumented sections read no clock.
  void set_phase_timers(telemetry::PhaseTimers* timers) noexcept {
    timers_ = timers;
  }

  /// Attaches (or detaches, with nullptr) a time-series recorder: every
  /// subsequent step() ends by feeding it one TimeSeriesSample built
  /// purely from simulation state (no engine draws, no wall-clock), so
  /// recording never perturbs the trajectory and the recorded content is
  /// byte-identical across kernels and shard counts.
  void set_time_series(telemetry::TimeSeries* series) noexcept {
    timeseries_ = series;
  }

  /// Attaches (or detaches, with nullptr) a ball tracer: subsequent steps
  /// report every arrival / throw / delete / requeue to it, from which it
  /// shadow-tracks sampled balls (see telemetry/ball_trace.hpp). Attach
  /// before the first step — the tracer reconstructs ball identity from
  /// the event stream, so it must see the run from the start. A traced
  /// round runs the scalar path; the bytes are the same.
  void set_ball_tracer(telemetry::BallTracer* tracer) {
    IBA_EXPECT(tracer == nullptr ||
                   config().backpressure == BackpressureMode::kNone,
               "Capped: ball tracing is incompatible with backpressure "
               "(shed balls would break the tracer's id sequence)");
    tracer_ = tracer;
  }

  /// Attaches (or detaches, with nullptr) a fault plan: from the next
  /// step() on, begin_round() is consulted after each round's admission
  /// and the per-bin flags/effective capacities it publishes are honored
  /// identically by both kernels at every shard count. The provider
  /// must draw randomness only from its own stream — the allocation
  /// engine's draw sequence is part of the determinism contract.
  /// Requires no per-bin capacities.
  void set_fault_plan(RoundFaultProvider* plan) {
    IBA_EXPECT(plan == nullptr || bin_caps_.empty(),
               "Capped: a fault plan is incompatible with per-bin "
               "capacities");
    fault_plan_ = plan;
    faults_round_ = false;
    round_caps_ = bin_caps_.empty() ? nullptr : bin_caps_.data();
  }

  /// Gives bin i its own buffer size c_i from the next step() on (an
  /// empty span restores the uniform c): CAPPED over non-uniform bins,
  /// each accepting the oldest min{c_i − ℓ, ν} of its requests. Pair
  /// with a WeightedBinSampler for weighted routing (core/bin_samplers.hpp).
  /// Requires config.capacity == max c_i (the storage width), every
  /// c_i >= 1, and no fault plan or controller. Not serialized in
  /// snapshots — reattach after a resume, exactly like a fault plan.
  void set_bin_capacities(std::span<const std::uint32_t> capacities);

  /// Attaches (or detaches, with nullptr) a non-uniform bin sampler:
  /// from the next step() on, the per-ball bin choices are drawn through
  /// it instead of uniformly (see core::BinChoiceSampler for the
  /// determinism contract). The sampler must produce indices in
  /// [0, n()). Not serialized in snapshots — reattach the same sampler
  /// after a resume, exactly like a fault plan.
  void set_bin_sampler(BinChoiceSampler* sampler) noexcept {
    bin_sampler_ = sampler;
  }

  [[nodiscard]] const CappedConfig& config() const noexcept {
    return side_.config();
  }
  /// The pool half: config, engine, pool, controller, waits and totals.
  [[nodiscard]] const PoolSide& pool_side() const noexcept { return side_; }

  /// True while a fault plan is attached (it may suppress service, which
  /// relaxes some trajectory invariants — see fault::InvariantAuditor).
  [[nodiscard]] bool has_fault_plan() const noexcept {
    return fault_plan_ != nullptr;
  }

  /// Waiting-time statistics over every ball deleted so far.
  [[nodiscard]] const WaitRecorder& waits() const noexcept {
    return side_.waits();
  }
  /// Clears the waiting-time statistics (e.g. after burn-in).
  void reset_wait_stats() noexcept { side_.waits().reset(); }

  /// Lifetime accounting for conservation checks: generated_total() ==
  /// pool_size() + total_load() + deleted_total() + shed_total() +
  /// deferred_total() (the last two are zero without backpressure).
  [[nodiscard]] std::uint64_t generated_total() const noexcept {
    return side_.generated_total();
  }
  [[nodiscard]] std::uint64_t deleted_total() const noexcept {
    return side_.deleted_total();
  }
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return side_.shed_total();
  }
  [[nodiscard]] std::uint64_t deferred_total() const noexcept {
    return side_.deferred_total();
  }

  /// Label of the ball `i` positions behind the front of bin `bin`
  /// (0 = next to be served). For the invariant auditor's FIFO-order
  /// scan; O(1) per peek.
  [[nodiscard]] std::uint64_t bin_label(std::uint32_t bin,
                                        std::uint32_t i) const noexcept {
    return bins_.peek(bin, i);
  }

 private:
  /// Builds the pool side, then the bins and scratch around it.
  explicit Capped(PoolSide side);
  /// Consults the fault plan (if any) for the round the pool side just
  /// opened, at its capacity, and caches its per-bin views for the
  /// kernels.
  void begin_round_faults();
  /// Builds the end-of-round TimeSeriesSample and feeds the attached
  /// recorder. Pure function of simulation state.
  void record_time_series(const RoundMetrics& m);
  /// The bin half of the round the pool side opened with head `m`, then
  /// the pool side's close. `choices` are the round's bin choices if
  /// already given; otherwise the round draws them from the engine (see
  /// round_fused).
  void run_round(RoundMetrics& m,
                 std::optional<std::span<const std::uint32_t>> choices);
  /// Draws the round's choices serially into choice_scratch_, through
  /// the sampler if one is attached.
  std::span<const std::uint32_t> draw_choices();

  // -- scalar (ball-at-a-time) round path --
  void accept_scalar(std::span<const std::uint32_t> choices, RoundMetrics& m);
  void delete_scalar(RoundMetrics& m);

  // -- fused bin-major round kernel (see docs/PERFORMANCE.md) --
  /// Fused accept+delete sweep for the untraced kernel, run on
  /// config().shards threads: the throws, sliced, into chunk streams —
  /// the given choices partitioned, or a uniform round drawn slice by
  /// slice — then the range kernel over each shard's run of chunks.
  /// Returns false (nothing mutated but scratch) when the pool's bucket
  /// count makes the partition uneconomical; the round then runs the
  /// scalar path. A split draw that a rejection shifted is drawn
  /// serially and partitioned instead.
  bool round_fused(std::optional<std::span<const std::uint32_t>> given,
                   RoundMetrics& m);
  /// Pass A for given choices: exact regions, then the scatter.
  void partition(std::span<const std::uint32_t> choices);
  /// Pass A for a uniform round: each slice drawn from the engine jumped
  /// to its first throw, straight into the streams. Returns false, with
  /// the engine untouched, when the slices' engine states do not chain.
  bool draw_split();
  /// Runs fn(s) for every slice s, each shard taking its own.
  void for_slices(const std::function<void(std::size_t)>& fn);
  /// Runs fn(shard, begin, end) over config().shards contiguous slices of
  /// [0, count): inline when shards == 1, else on the shard pool.
  void for_shards(std::size_t count,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn);

  // First in this list: it validates the config before any bin storage
  // is allocated.
  PoolSide side_;
  // The arena must outlive everything allocated from it (bins_ and the
  // ArenaBuffer scratch below), hence its position in this list. Held by
  // pointer so a moved Capped keeps the address its buffers point at.
  std::unique_ptr<Arena> arena_;
  ArenaBuffer<std::uint32_t> choice_scratch_;
  std::vector<std::uint64_t> rejected_;  // per pool bucket, oldest first
  std::map<std::uint64_t, std::uint64_t> requeue_;  // label → crashed count
  std::vector<queueing::AgedPool::Bucket> requeue_scratch_;
  queueing::BinTable bins_;

  // Fused-sweep scratch, reused across rounds: the range kernel's chunk
  // streams (core/range_kernel.hpp), the throw slices, and a split
  // draw's engine state at each slice's first and past its last throw.
  struct alignas(64) SliceStates {
    std::array<std::uint64_t, 4> first;
    std::array<std::uint64_t, 4> last;
  };
  StreamRegions regions_;
  std::vector<ThrowSlice> throw_slices_;
  std::vector<SliceStates> split_states_;
  std::vector<SweepShard> sweep_;             // one per shard
  std::vector<queueing::AgedPool::Bucket> visit_buckets_;  // visit order
  std::vector<std::uint64_t> bucket_ends_;    // throw-index boundaries
  std::unique_ptr<concurrency::ThreadPool> shard_pool_;  // shards > 1

  telemetry::PhaseTimers* timers_ = nullptr;
  telemetry::BallTracer* tracer_ = nullptr;
  telemetry::TimeSeries* timeseries_ = nullptr;

  // Fault-injection round state: set by begin_round_faults(), read by
  // both kernels. Null / false outside a faulted round, so unfaulted
  // rounds keep the lean fast paths.
  RoundFaultProvider* fault_plan_ = nullptr;
  BinChoiceSampler* bin_sampler_ = nullptr;
  bool faults_round_ = false;
  const std::uint8_t* fault_flags_ = nullptr;
  // The round's per-bin acceptance bound, or null when every bin has
  // config().capacity: a faulted round's effective capacities, else the
  // attached per-bin capacities (the two are mutually exclusive).
  const std::uint32_t* round_caps_ = nullptr;
  std::vector<std::uint32_t> bin_caps_;  // set_bin_capacities; empty = c
};

static_assert(AllocationProcess<Capped>);

}  // namespace iba::core
