// dist::Coordinator — the state-owning half of the distributed engine
// (docs/DISTRIBUTED.md).
//
// The coordinator replicates core::Capped's round structure exactly —
// control decision, arrival sampling, backpressure admission — on the
// master engine, in the single-process order. It does not draw the
// bin choices: it ships the engine state from before the draw and the
// pool's buckets in one kRound frame, identical for every worker, and
// each worker redraws the round and keeps its own range's throws. All
// workers must return the same post-draw engine state, which the
// coordinator adopts, so the engine stream is byte-identical to a local
// run. The returned deltas are exact integers merged order-
// independently (sums, min/max, UintMoments, histogram counts), so the
// merged RoundMetrics — and everything downstream: controller
// decisions, artifact bytes — cannot tell how many processes computed
// them.
//
// Failure model: the round protocol is synchronous, so every expected
// response carries a poll deadline. A worker that hangs up, misses the
// deadline or reports a post-draw engine state that differs from
// worker 0's raises WorkerLost; the caller (dist_run) exits with
// status 4 and the run resumes from the last committed checkpoint
// generation.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "core/admission.hpp"
#include "core/capped.hpp"
#include "core/metrics.hpp"
#include "core/process.hpp"
#include "dist/protocol.hpp"
#include "queueing/aged_pool.hpp"

namespace iba::dist {

/// A worker crashed, stalled past the deadline, or spoke garbage.
class WorkerLost : public std::runtime_error {
 public:
  WorkerLost(std::uint32_t worker, const std::string& what)
      : std::runtime_error("dist: worker " + std::to_string(worker) + ": " +
                           what),
        worker_(worker) {}
  [[nodiscard]] std::uint32_t worker() const noexcept { return worker_; }

 private:
  std::uint32_t worker_;
};

struct CoordinatorOptions {
  /// Poll deadline on every expected worker response (the heartbeat).
  int timeout_ms = 30'000;
};

class Coordinator {
 public:
  /// Fresh run. `worker_fds` are connected sockets in accept order (the
  /// kMsgHello handshake maps them to bin-range slots, so the order is
  /// arbitrary); the coordinator does not own them. Performs the full
  /// init handshake before returning.
  Coordinator(const core::CappedConfig& config, core::Engine engine,
              std::vector<int> worker_fds,
              const CoordinatorOptions& options = {});

  /// Resume. `snapshot` is the coordinator file of a committed
  /// generation (bin_queues empty); workers load their shard of the
  /// same generation under `resume_base`. Verifies ball conservation
  /// across the restored shards before returning.
  Coordinator(const core::CappedSnapshot& snapshot,
              std::vector<int> worker_fds, const std::string& resume_base,
              const CoordinatorOptions& options = {});

  /// Advances one round. Byte-identical metrics and engine stream to
  /// core::Capped::step() on the same (config, engine) history.
  core::RoundMetrics step();

  /// Orchestrates one checkpoint generation at the current round:
  /// shard files (remote), the coordinator file, then the manifest —
  /// written last, as the commit point. Collects the previous-previous
  /// generation's files.
  void save_checkpoint(const std::string& base, const std::string& digest,
                       std::uint64_t seed);

  /// Sends every worker a clean kMsgShutdown (best-effort: a worker
  /// that already died is ignored — the run is over either way).
  void shutdown() noexcept;

  /// The coordinator's persistable state: a CappedSnapshot whose
  /// bin_queues are present but empty (the bins live in the shards).
  [[nodiscard]] core::CappedSnapshot snapshot() const;

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return config_.n; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return config_.capacity;
  }
  [[nodiscard]] std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
  [[nodiscard]] std::uint64_t pool_size() const noexcept {
    return pool_.total();
  }
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
  [[nodiscard]] const control::Controller* controller() const noexcept {
    return controller_.get();
  }
  [[nodiscard]] const core::CappedConfig& config() const noexcept {
    return config_;
  }

  /// Cumulative measured-window wait statistics (exact integer state).
  [[nodiscard]] core::CappedWaitState wait_state() const {
    return core::wait_state(waits_);
  }
  [[nodiscard]] std::uint64_t wait_quantile(double q) const noexcept {
    return waits_.quantile_upper_bound(q);
  }
  /// Clears the wait statistics (burn-in boundary) — coordinator-side
  /// only; workers keep no cumulative wait state.
  void reset_wait_stats() noexcept { waits_.reset(); }

  /// Time-varying arrival rate, as core::Capped::set_lambda_n.
  void set_lambda_n(std::uint64_t lambda_n);
  /// Bin sampler, as core::Capped::set_bin_sampler: nullptr (uniform)
  /// or a scenario::ZipfBinSampler over n bins — the workers rebuild it
  /// from its exponent. Any other sampler is a ContractViolation.
  /// Reattach after a resume; not serialized.
  void set_bin_sampler(core::BinChoiceSampler* sampler);

 private:
  struct Link {
    int fd = -1;
    std::uint64_t bin_lo = 0;
    std::uint64_t bin_count = 0;
  };
  Coordinator(const core::CappedConfig& config, core::Engine engine,
              std::vector<int> worker_fds, const CoordinatorOptions& options,
              bool defer_init);
  void validate_dist_config() const;
  void init_workers(const std::string& resume_base);
  void apply_control();
  /// Blocks until `fd` is readable (deadline = options_.timeout_ms) and
  /// reads one frame; raises WorkerLost on timeout, EOF, or transport
  /// failure, and on a frame whose type differs from `want`.
  void read_worker_frame(std::uint32_t worker, std::uint32_t want,
                         std::vector<std::uint8_t>& payload);

  core::CappedConfig config_;
  core::Engine engine_;
  CoordinatorOptions options_;
  std::uint64_t round_ = 0;

  queueing::AgedPool pool_;
  queueing::AgedPool survivors_;
  core::AdmissionGate gate_;  // core::Capped's backpressure admission

  std::uint64_t generated_total_ = 0;
  std::uint64_t deleted_total_ = 0;

  core::WaitRecorder waits_;

  std::unique_ptr<control::Controller> controller_;
  std::uint32_t sampler_ = kSamplerUniform;  // a SamplerTag
  double zipf_s_ = 0.0;

  std::vector<Link> links_;

  // Checkpoint-generation bookkeeping for deferred gc (see
  // dist/checkpoint.hpp). kNoGeneration = none saved yet / unknown
  // after a resume (that one stale generation is left on disk).
  static constexpr std::uint64_t kNoGeneration = ~std::uint64_t{0};
  std::uint64_t last_saved_round_ = kNoGeneration;
  std::uint64_t prev_saved_round_ = kNoGeneration;
};

}  // namespace iba::dist
