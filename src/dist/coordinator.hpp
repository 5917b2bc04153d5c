// dist::Coordinator — the state-owning half of the distributed engine
// (docs/DISTRIBUTED.md).
//
// The coordinator holds the same core::PoolSide as core::Capped — the
// control decision, arrival sampling, backpressure admission, pool,
// totals and snapshot — and runs it in the same order, so the master
// engine consumes the same stream. What it adds is the distribution: it
// does not draw the bin choices, but ships the engine state from before
// the draw and the pool's buckets in one kRound frame, identical for
// every worker, and each worker redraws the round and keeps its own
// range's throws. All workers must return the same post-draw engine
// state, which the coordinator adopts, so the engine stream is
// byte-identical to a local run. The returned deltas are exact integers
// merged order-independently (sums, min/max, UintMoments, histogram
// counts), so the merged RoundMetrics — and everything downstream:
// controller decisions, artifact bytes — cannot tell how many processes
// computed them.
//
// Failure model: the round protocol is synchronous, so every expected
// response carries a poll deadline. A worker that hangs up, misses the
// deadline or reports a post-draw engine state that differs from
// worker 0's raises WorkerLost; the caller (dist_run) exits with
// status 4 and the run resumes from the last committed checkpoint
// generation. So does a resumed worker whose shard's body CRC is not
// the one the generation's manifest committed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/pool_side.hpp"
#include "core/process.hpp"
#include "dist/protocol.hpp"
#include "sim/generation.hpp"

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
  /// generation (bins all empty); workers load their shard of the
  /// same generation under `resume_base`. `shard_crcs` are the body
  /// CRCs the generation's manifest committed, one per worker: a worker
  /// whose loaded shard has another raises WorkerLost. Verifies ball
  /// conservation across the restored shards before returning.
  Coordinator(const core::CappedSnapshot& snapshot,
              std::vector<int> worker_fds, const std::string& resume_base,
              const std::vector<std::uint32_t>& shard_crcs,
              const CoordinatorOptions& options = {});

  /// Advances one round. Byte-identical metrics and engine stream to
  /// core::Capped::step() on the same (config, engine) history.
  core::RoundMetrics step();

  /// Writes the current round's generation files (sim/generation.hpp):
  /// the shard files (remote), then the coordinator file. Returns the
  /// generation's manifest with the shard and coordinator CRCs filled
  /// in; the caller adds its sidecars and commits it. Each worker
  /// removes its shard of generation `collect_round` (0 = none).
  sim::Manifest save_checkpoint(const std::string& base,
                                const std::string& digest, std::uint64_t seed,
                                std::uint64_t collect_round = 0);

  /// Sends every worker a clean kMsgShutdown (best-effort: a worker
  /// that already died is ignored — the run is over either way).
  void shutdown() noexcept;

  /// The coordinator's persistable state: a CappedSnapshot whose bins
  /// are n zero loads (the bins live in the shards).
  [[nodiscard]] core::CappedSnapshot snapshot() const;

  [[nodiscard]] std::uint64_t round() const noexcept { return side_.round(); }
  [[nodiscard]] std::uint32_t n() const noexcept { return side_.config().n; }
  [[nodiscard]] std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
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
  /// The pool half: config, engine, pool, controller, waits and totals.
  [[nodiscard]] const core::PoolSide& pool_side() const noexcept {
    return side_;
  }

  /// Cumulative measured-window wait statistics (exact integer state).
  [[nodiscard]] core::CappedWaitState wait_state() const {
    return core::wait_state(side_.waits());
  }
  [[nodiscard]] std::uint64_t wait_quantile(double q) const noexcept {
    return side_.waits().quantile_upper_bound(q);
  }
  /// Clears the wait statistics (burn-in boundary) — coordinator-side
  /// only; workers keep no cumulative wait state.
  void reset_wait_stats() noexcept { side_.waits().reset(); }

  /// Time-varying arrival rate, as core::Capped::set_lambda_n.
  void set_lambda_n(std::uint64_t lambda_n) { side_.set_lambda_n(lambda_n); }
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
  /// Checks the config and assigns the bin ranges; the public
  /// constructors then run the init handshake.
  Coordinator(core::PoolSide side, std::vector<int> worker_fds,
              const CoordinatorOptions& options);
  /// Hello, init and init-ack with every worker. A resume (non-empty
  /// `resume_base`) checks each loaded shard's CRC against `shard_crcs`.
  void init_workers(const std::string& resume_base,
                    const std::vector<std::uint32_t>& shard_crcs);
  /// Blocks until `fd` is readable (deadline = options_.timeout_ms) and
  /// reads one frame; raises WorkerLost on timeout, EOF, or transport
  /// failure, and on a frame whose type differs from `want`.
  void read_worker_frame(std::uint32_t worker, std::uint32_t want,
                         std::vector<std::uint8_t>& payload);

  core::PoolSide side_;  // config, engine, pool, admission, control, totals
  CoordinatorOptions options_;
  std::uint32_t sampler_ = kSamplerUniform;  // a SamplerTag
  double zipf_s_ = 0.0;

  std::vector<Link> links_;
};

}  // namespace iba::dist
