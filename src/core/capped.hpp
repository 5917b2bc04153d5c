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
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "concurrency/thread_pool.hpp"
#include "control/controller.hpp"
#include "core/admission.hpp"
#include "core/fault_hooks.hpp"
#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "core/process.hpp"
#include "core/arena.hpp"
#include "queueing/aged_pool.hpp"
#include "queueing/bin_table.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/telemetry_config.hpp"
#include "telemetry/timeseries.hpp"

namespace iba::telemetry {
class BallTracer;
}  // namespace iba::telemetry

namespace iba::core {

/// Configuration of a CAPPED(c, λ) instance. λ is specified through the
/// integral per-round arrival count λn, exactly as in the paper's model.
/// The policy fields default to the paper's process; changing them gives
/// the footnote-2 stochastic-arrival variant and the ablations of
/// DESIGN.md §7.
struct CappedConfig {
  std::uint32_t n = 0;          ///< number of bins
  std::uint32_t capacity = 1;   ///< buffer size c, in [1, 65535]
  std::uint64_t lambda_n = 0;   ///< λ·n, new balls per round (integral)

  ArrivalModel arrival = ArrivalModel::kDeterministic;
  DeletionDiscipline deletion = DeletionDiscipline::kFifo;
  AcceptanceOrder acceptance = AcceptanceOrder::kOldestFirst;
  /// Per-round, per-bin probability of a service failure.
  /// 0 = the paper's reliable bins.
  double failure_probability = 0.0;
  /// What failure does: skip one service opportunity, or crash and dump
  /// the buffer back into the pool.
  FailureMode failure_mode = FailureMode::kSkipService;

  /// How the round hot path executes. Both kernels produce byte-identical
  /// trajectories for the same seed; kBinMajor (the fused sweep) is the
  /// fast default, kScalar is the reference it is differentially tested
  /// against (docs/PERFORMANCE.md).
  RoundKernel kernel = RoundKernel::kBinMajor;
  /// Number of threads the fused bin-major sweep runs on (1 = inline, no
  /// thread pool); each takes a slice of the throws and a contiguous run
  /// of bin chunks. Requires kernel == kBinMajor when > 1. Results are
  /// invariant in this value — every engine draw (failure coins,
  /// uniform-deletion positions) happens on the calling thread in bin
  /// order, so the RNG stream never depends on scheduling.
  std::uint32_t shards = 1;

  /// Pool bound for backpressure (0 = unbounded, the paper's model).
  /// The bound applies at admission: arrivals beyond it are shed or
  /// deferred per `backpressure`; balls already in flight never drop.
  std::uint64_t pool_limit = 0;
  BackpressureMode backpressure = BackpressureMode::kNone;
  /// Rounds a deferred arrival waits before retrying admission
  /// (kDeferRetry). Deterministic: no randomness in the backoff.
  std::uint32_t backoff_rounds = 4;

  /// Adaptive control plane (src/control/): when control.policy is not
  /// 'none', a controller retunes `capacity` (and, with an admission
  /// target, `pool_limit`) at round boundaries. Requires
  /// capacity ≤ control.c_max.
  control::ControlConfig control;

  /// Largest buffer size: the bin table packs a queue's length into 16
  /// bits.
  static constexpr std::uint32_t kMaxCapacity = queueing::BinTable::kSizeMask;

  /// λ as a real number.
  [[nodiscard]] double lambda() const noexcept {
    return n == 0 ? 0.0
                  : static_cast<double>(lambda_n) / static_cast<double>(n);
  }

  /// Builds a config from a real rate; requires λ·n to be integral
  /// (within fp tolerance), as the model assumes.
  static CappedConfig from_rate(std::uint32_t n, double lambda,
                                std::uint32_t capacity);

  /// Throws ContractViolation when the configuration is unusable.
  void validate() const;
};

/// Wait-recorder state captured in a snapshot — exact integer moments
/// (Σw² split into 64-bit halves) plus the dyadic histogram — so a
/// resumed run continues the cumulative waiting-time statistics
/// bit-for-bit instead of restarting them.
struct CappedWaitState {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t sumsq_hi = 0;
  std::uint64_t sumsq_lo = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> histogram;  ///< Log2Histogram counts
};

/// The exact state of a wait recorder, as a snapshot stores it.
[[nodiscard]] CappedWaitState wait_state(const WaitRecorder& waits);

/// Complete dynamic state of a Capped process — everything needed to
/// resume a run bit-for-bit, including the cumulative waiting-time
/// statistics and backpressure accounting. Fault-plan state (when a
/// plan is attached) lives beside the snapshot in the checkpoint file
/// (sim/checkpoint.hpp); the plan is external to the process.
struct CappedSnapshot {
  CappedConfig config;
  std::uint64_t round = 0;
  std::uint64_t generated_total = 0;
  std::uint64_t deleted_total = 0;
  std::uint64_t shed_total = 0;
  std::array<std::uint64_t, 4> engine_state{};
  std::vector<queueing::AgedPool::Bucket> pool;        ///< oldest-first
  std::vector<DeferredBucket> deferred;                ///< retry order
  std::vector<std::vector<std::uint64_t>> bin_queues;  ///< front-first
  CappedWaitState waits;
  /// Controller state; meaningful iff config.control.enabled(). A
  /// snapshot taken mid-shrink records the (smaller) current capacity
  /// in `config`, and bins still draining may exceed it — the restore
  /// path sizes the storage to the longest queue.
  control::ControllerState controller;
};

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
    return engine_.state();
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
    return pool_.total() + config_.lambda_n;
  }

  [[nodiscard]] std::uint32_t n() const noexcept { return config_.n; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return config_.capacity;
  }
  [[nodiscard]] double lambda() const noexcept { return config_.lambda(); }
  [[nodiscard]] std::uint64_t lambda_n() const noexcept {
    return config_.lambda_n;
  }

  /// The allocation counter behind the bin table and the kernel
  /// scratch. Exposed for allocation-steadiness checks: after warm-up,
  /// a round must not grow allocation_count().
  [[nodiscard]] const Arena& arena() const noexcept { return *arena_; }

  /// Changes the arrival rate for subsequent rounds (time-varying load,
  /// e.g. diurnal patterns). Takes effect from the next step().
  void set_lambda_n(std::uint64_t lambda_n) {
    IBA_EXPECT(lambda_n <= config_.n,
               "Capped: lambda_n must not exceed n (lambda <= 1)");
    config_.lambda_n = lambda_n;
  }

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
    IBA_EXPECT(config_.backpressure != BackpressureMode::kNone,
               "Capped: set_pool_limit requires a backpressure mode");
    IBA_EXPECT(pool_limit > 0, "Capped: pool_limit must be positive");
    config_.pool_limit = pool_limit;
  }

  /// The adaptive controller, when config().control is enabled
  /// (read-only: decisions, estimator, counters). Null otherwise.
  [[nodiscard]] const control::Controller* controller() const noexcept {
    return controller_.get();
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t pool_size() const noexcept {
    return pool_.total();
  }
  [[nodiscard]] const queueing::AgedPool& pool() const noexcept {
    return pool_;
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
  /// byte-identical across kernels and shard counts. With
  /// -DIBA_TELEMETRY=OFF the sampling hook compiles out entirely.
  void set_time_series(telemetry::TimeSeries* series) noexcept {
    timeseries_ = series;
  }

  /// Attaches (or detaches, with nullptr) a ball tracer: subsequent steps
  /// report every arrival / throw / delete / requeue to it, from which it
  /// shadow-tracks sampled balls (see telemetry/ball_trace.hpp). Attach
  /// before the first step — the tracer reconstructs ball identity from
  /// the event stream, so it must see the run from the start. With
  /// -DIBA_TELEMETRY=OFF the hook calls compile out entirely.
  void set_ball_tracer(telemetry::BallTracer* tracer) {
    IBA_EXPECT(tracer == nullptr ||
                   config_.backpressure == BackpressureMode::kNone,
               "Capped: ball tracing is incompatible with backpressure "
               "(shed balls would break the tracer's id sequence)");
    tracer_ = tracer;
  }

  /// Attaches (or detaches, with nullptr) a fault plan: from the next
  /// step() on, begin_round() is consulted before each round and the
  /// per-bin flags/effective capacities it publishes are honored
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
    return config_;
  }

  /// True while a fault plan is attached (it may suppress service, which
  /// relaxes some trajectory invariants — see fault::InvariantAuditor).
  [[nodiscard]] bool has_fault_plan() const noexcept {
    return fault_plan_ != nullptr;
  }

  /// Waiting-time statistics over every ball deleted so far.
  [[nodiscard]] const WaitRecorder& waits() const noexcept { return waits_; }
  /// Clears the waiting-time statistics (e.g. after burn-in).
  void reset_wait_stats() noexcept { waits_.reset(); }

  /// Lifetime accounting for conservation checks: generated_total() ==
  /// pool_size() + total_load() + deleted_total() + shed_total() +
  /// deferred_total() (the last two are zero without backpressure).
  [[nodiscard]] std::uint64_t generated_total() const noexcept {
    return generated_total_;
  }
  [[nodiscard]] std::uint64_t deleted_total() const noexcept {
    return deleted_total_;
  }
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return gate_.shed_total();
  }
  [[nodiscard]] std::uint64_t deferred_total() const noexcept {
    return gate_.deferred_total();
  }

  /// Label of the ball `i` positions behind the front of bin `bin`
  /// (0 = next to be served). For the invariant auditor's FIFO-order
  /// scan; O(1) per peek.
  [[nodiscard]] std::uint64_t bin_label(std::uint32_t bin,
                                        std::uint32_t i) const noexcept {
    return bins_.peek(bin, i);
  }

 private:
  /// Consults the fault plan (if any) for the round about to run and
  /// caches its per-bin views for the kernels.
  void begin_round_faults();
  /// Consults the controller (if any) for the round about to run and
  /// applies its capacity / pool-limit targets. Runs before
  /// begin_round_faults() so the fault plan re-baselines against the
  /// round's actual capacity.
  void apply_control();
  RoundMetrics step_internal(const Admission& admission,
                             std::span<const std::uint32_t> choices);
  /// Builds the end-of-round TimeSeriesSample and feeds the attached
  /// recorder. Pure function of simulation state.
  void record_time_series(const RoundMetrics& m);
  RoundMetrics allocate_and_delete(const Admission& admission,
                                   std::span<const std::uint32_t> choices);
  void delete_from_bin(std::uint32_t bin, RoundMetrics& m);

  // -- scalar (ball-at-a-time) round path --
  void accept_scalar(std::span<const std::uint32_t> choices, RoundMetrics& m);
  void delete_scalar(RoundMetrics& m);

  // -- fused bin-major round kernel (see docs/PERFORMANCE.md) --
  void flatten_pool_buckets(std::uint64_t expected_total);
  /// Fused accept+delete sweep for the untraced kernel,
  /// run on config_.shards threads: a sliced two-level partition of the
  /// throws into bin chunks, then per chunk the acceptance replay and the
  /// delete walk while the chunk's bins are cache-hot. Returns false
  /// (nothing mutated) when the pool's bucket count makes the partition
  /// bookkeeping uneconomical; the round then runs the scalar path.
  bool round_fused(std::span<const std::uint32_t> choices, RoundMetrics& m);
  /// One shard's private accumulators in a fused sweep. All are exact
  /// integers, so merging them in shard order reproduces the serial
  /// sweep bit for bit. Aligned so shards never share a cache line.
  struct alignas(64) SweepShard {
    std::uint64_t accepted = 0;
    std::uint64_t deleted = 0;
    std::uint64_t wait_sum = 0;
    std::uint64_t wait_max = 0;
    std::uint64_t max_load = 0;
    std::uint64_t empty_bins = 0;
    std::uint64_t busy_ns = 0;    // phase timing only
    std::uint64_t delete_ns = 0;  // phase timing only
    std::vector<std::uint64_t> rejected;  // per pool bucket
    std::vector<std::uint64_t> requeued;  // labels of drained balls
    WaitRecorder waits;
  };
  /// Pass B of the fused sweep over chunks [chunk_begin, chunk_end):
  /// acceptance replay per chunk, then (with_delete) that chunk's delete
  /// walk.
  void sweep_chunks(SweepShard& acc, std::uint32_t chunk_begin,
                    std::uint32_t chunk_end, bool with_delete);
  /// The fused sweep's delete walk over bins [bin_begin, bin_end). Draws
  /// from the engine only for failure coins and uniform deletion.
  void delete_bins(SweepShard& acc, std::uint32_t bin_begin,
                   std::uint32_t bin_end);
  void record_wait(std::uint32_t bin, std::uint64_t label,
                   std::uint64_t position, RoundMetrics& m);
  /// Runs fn(shard, begin, end) over config_.shards contiguous slices of
  /// [0, count): inline when shards == 1, else on the shard pool.
  void for_shards(std::size_t count,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn);

  CappedConfig config_;
  Engine engine_;
  std::uint64_t round_ = 0;
  void merge_requeued_into_pool();

  queueing::AgedPool pool_;
  queueing::AgedPool survivors_;  // scratch, reused across rounds
  // The arena must outlive everything allocated from it (bins_ and the
  // ArenaBuffer scratch below), hence its position in this list. Held by
  // pointer so a moved Capped keeps the address its buffers point at.
  std::unique_ptr<Arena> arena_;
  ArenaBuffer<std::uint32_t> choice_scratch_;
  std::vector<queueing::AgedPool::Bucket> reverse_survivor_scratch_;
  std::map<std::uint64_t, std::uint64_t> requeue_;  // label → crashed count
  queueing::BinTable bins_;

  // Fused kernel scratch, reused across rounds: throws are partitioned
  // into contiguous bin-range chunks sized so the cursor arrays and
  // per-chunk bin state stay cache-resident. A chunk's stream is one sub-stream per throw slice,
  // in slice order; each holds 16-bit chunk-local offsets in bucket-major
  // visit order with one sentinel per bucket the slice spans, so the
  // bucket of an entry is implied by its segment instead of stored.
  ArenaBuffer<std::uint16_t> part16_;         // local bin offsets + sentinels
  // Fused-sweep partition bookkeeping. Slice s's throws span pool buckets
  // [slice_buckets_[2s], slice_buckets_[2s+1]) and its stream for chunk c
  // ends at slice_cursor_[s * row + c] (rows padded to a cache line);
  // chunk c's streams start at chunk_begin_[c].
  std::vector<std::uint64_t> slice_cursor_;
  std::vector<std::size_t> slice_buckets_;
  std::vector<std::uint64_t> chunk_begin_;
  std::vector<SweepShard> sweep_;             // one per shard
  std::vector<std::uint64_t> bucket_labels_;  // flat copy of pool buckets
  std::vector<std::uint64_t> bucket_ends_;    // throw-index boundaries
  std::unique_ptr<concurrency::ThreadPool> shard_pool_;  // shards > 1

  std::unique_ptr<control::Controller> controller_;  // config_.control on

  telemetry::PhaseTimers* timers_ = nullptr;
  telemetry::BallTracer* tracer_ = nullptr;
  telemetry::TimeSeries* timeseries_ = nullptr;
  WaitRecorder waits_;
  std::uint64_t generated_total_ = 0;
  std::uint64_t deleted_total_ = 0;

  // Fault-injection round state: set by begin_round_faults(), read by
  // both kernels. Null / false outside a faulted round, so unfaulted
  // rounds keep the lean fast paths.
  RoundFaultProvider* fault_plan_ = nullptr;
  BinChoiceSampler* bin_sampler_ = nullptr;
  bool faults_round_ = false;
  const std::uint8_t* fault_flags_ = nullptr;
  // The round's per-bin acceptance bound, or null when every bin has
  // config_.capacity: a faulted round's effective capacities, else the
  // attached per-bin capacities (the two are mutually exclusive).
  const std::uint32_t* round_caps_ = nullptr;
  std::vector<std::uint32_t> bin_caps_;  // set_bin_capacities; empty = c

  AdmissionGate gate_;  // backpressure state (kShed / kDeferRetry)
  std::vector<queueing::AgedPool::Bucket> requeue_scratch_;
};

static_assert(AllocationProcess<Capped>);

}  // namespace iba::core
