// The pool half of a CAPPED round (Algorithm 1, DESIGN.md §1), once for
// both owners of a run: core::Capped (bins in process) and
// dist::Coordinator (bins in remote workers). open_round() runs the
// control decision, the arrival draw and admission and adds the cohort
// to the pool, in one order, so every owner consumes the master engine
// identically. The owner then runs the bin half (the range kernel,
// core/range_kernel.hpp) on the pool's throws, and close_round() puts
// the rejected and requeued balls back. The round order, the survivor
// rule, the snapshot fields and the conservation formula live here only.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "control/controller.hpp"
#include "core/admission.hpp"
#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "core/process.hpp"
#include "queueing/aged_pool.hpp"
#include "queueing/bin_table.hpp"

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
  /// invariant in this value: a uniform round's slices are drawn from
  /// the engine jumped exactly to each slice's first throw, and every
  /// other engine draw (a sampler's choices, failure coins,
  /// uniform-deletion positions) happens on the calling thread in order,
  /// so the RNG stream never depends on scheduling.
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
  std::vector<queueing::AgedPool::Bucket> pool;  ///< oldest-first
  std::vector<DeferredBucket> deferred;          ///< retry order
  queueing::BinQueues bins;  ///< n loads; queues front-first
  CappedWaitState waits;
  /// Controller state; meaningful iff config.control.enabled(). A
  /// snapshot taken mid-shrink records the (smaller) current capacity
  /// in `config`, and bins still draining may exceed it — the restore
  /// path sizes the storage to the longest queue.
  control::ControllerState controller;
};

/// Everything a CAPPED run holds apart from its bins: config, master
/// engine, round, pool, admission, controller, waits and totals.
class PoolSide {
 public:
  /// Validates `config` (ContractViolation when unusable).
  PoolSide(const CappedConfig& config, Engine engine);

  /// Resumes everything a snapshot holds apart from its bins.
  explicit PoolSide(const CappedSnapshot& snapshot);

  /// Opens the next round and returns its metrics head (round,
  /// generated, shed, thrown); the pool then holds the round's throws.
  RoundMetrics open_round();

  /// The pool becomes its survivors, `rejected[b]` balls of pool bucket
  /// b (oldest first), plus the crash `requeued` balls (labels
  /// ascending). Counts m.deleted, fills m.pool_size, m.deferred and
  /// m.oldest_pool_age, and lets the controller observe m.
  void close_round(RoundMetrics& m, std::span<const std::uint64_t> rejected,
                   std::span<const queueing::AgedPool::Bucket> requeued);

  /// Everything but the bins, which the owner fills.
  [[nodiscard]] CappedSnapshot snapshot() const;

  /// The balls the bins must hold by conservation: everything ever
  /// generated is in the pool, in a bin, deleted, shed or deferred.
  [[nodiscard]] std::uint64_t bin_load() const noexcept {
    return generated_total_ - pool_.total() - deleted_total_ -
           gate_.shed_total() - gate_.deferred_total();
  }

  // From the next round on. The owner widens its bins when c grew.
  void set_lambda_n(std::uint64_t lambda_n);
  void set_capacity(std::uint32_t capacity);
  void set_pool_limit(std::uint64_t pool_limit);  // needs backpressure

  [[nodiscard]] const CappedConfig& config() const noexcept {
    return config_;
  }
  /// The master engine: the bin half draws the round's choices from it.
  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const queueing::AgedPool& pool() const noexcept {
    return pool_;
  }
  [[nodiscard]] const control::Controller* controller() const noexcept {
    return controller_.get();
  }
  /// Waits of every ball served so far; the bin half records them.
  [[nodiscard]] WaitRecorder& waits() noexcept { return waits_; }
  [[nodiscard]] const WaitRecorder& waits() const noexcept { return waits_; }
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

 private:
  CappedConfig config_;
  Engine engine_;
  std::uint64_t round_ = 0;
  queueing::AgedPool pool_;
  queueing::AgedPool survivors_;  // scratch, reused across rounds
  AdmissionGate gate_;            // backpressure (kShed / kDeferRetry)
  std::unique_ptr<control::Controller> controller_;  // config_.control on
  WaitRecorder waits_;
  std::uint64_t generated_total_ = 0;
  std::uint64_t deleted_total_ = 0;
};

}  // namespace iba::core
