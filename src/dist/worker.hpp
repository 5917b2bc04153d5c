// dist::Worker — one bin-range shard of the distributed engine.
//
// A worker owns bins [bin_lo, bin_lo + bin_count) of the global n: no
// pool, no controller. Each round it rebuilds the master engine from
// the state the coordinator shipped and redraws the whole round's bin
// choices, bucket by bucket and oldest first — the single-process draw,
// choice for choice, in fixed batches. Each throw into its range goes
// straight into its chunk's 16-bit offset stream, and the range kernel
// (core/range_kernel.hpp) — the accept/serve rule core::Capped runs —
// sweeps the range once: acceptance in global visit order, then the
// paper's FIFO one-deletion-per-non-empty-bin pass. The worker reports
// the kernel's exact integer deltas plus the engine state after the
// draw. Every worker draws the same stream from the same state, so the
// coordinator can require their post-draw states to agree; acceptance
// and deletion draw nothing, so the trajectory never depends on worker
// scheduling or message timing.
//
// The same class serves both deployments: dist_run --role worker wraps
// it around a connected TCP socket; the differential tests run it on a
// thread over one end of a socketpair.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/range_kernel.hpp"
#include "dist/protocol.hpp"
#include "queueing/bin_table.hpp"
#include "scenario/arrival.hpp"

namespace iba::dist {

class Worker {
 public:
  /// `fd` must be connected to the coordinator; the Worker does not own
  /// it. `index` is this worker's bin-range slot (announced via
  /// kMsgHello so TCP workers can connect in any order).
  Worker(int fd, std::uint32_t index) : fd_(fd), index_(index) {
    regions_.set_arena(&arena_);
  }

  /// Sends the hello, then serves coordinator messages until a clean
  /// kMsgShutdown (returns true) or the coordinator hangs up (returns
  /// false — routine when a run is killed; a restarted coordinator
  /// spawns fresh workers). Throws net::NetError/FrameError on
  /// transport corruption and std::runtime_error on protocol misuse.
  bool run();

  [[nodiscard]] std::uint64_t rounds_served() const noexcept {
    return rounds_served_;
  }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return table_.has_value() ? table_->total_load() : 0;
  }
  /// The last round's throws into this range: the workers' counts sum to
  /// the round's thrown.
  [[nodiscard]] std::uint64_t kept_throws() const noexcept {
    return kept_throws_;
  }
  /// Mean wall time per round served, in ms, of the draw (every throw,
  /// then the keep, redraws included) and of the range kernel's sweep.
  [[nodiscard]] double draw_ms_per_round() const noexcept {
    return per_round_ms(draw_ns_);
  }
  [[nodiscard]] double sweep_ms_per_round() const noexcept {
    return per_round_ms(sweep_ns_);
  }

  /// Counts the bin table's and throw streams' allocations: flat across
  /// rounds once the streams fit the run's rounds.
  [[nodiscard]] const core::Arena& arena() const noexcept { return arena_; }

 private:
  void handle_init(const InitMsg& msg);
  void handle_round(const RoundMsg& msg);
  void handle_checkpoint(const CheckpointMsg& msg);
  [[nodiscard]] double per_round_ms(std::uint64_t ns) const noexcept {
    return rounds_served_ == 0 ? 0.0
                               : static_cast<double>(ns) / 1e6 /
                                     static_cast<double>(rounds_served_);
  }

  int fd_;
  std::uint32_t index_;
  std::uint64_t n_ = 0;
  std::uint64_t bin_lo_ = 0;
  std::uint64_t bin_count_ = 0;
  std::uint64_t round_ = 0;  ///< last completed round
  // Declared before everything allocated from it.
  core::Arena arena_;
  std::optional<queueing::BinTable> table_;
  // The Zipf table of the last kSamplerZipf round, rebuilt when the
  // exponent changes (it is a pure function of (n, s)).
  std::optional<scenario::ZipfBinSampler> zipf_;
  std::uint64_t rounds_served_ = 0;
  std::uint64_t kept_throws_ = 0;
  std::uint64_t draw_ns_ = 0;
  std::uint64_t sweep_ns_ = 0;

  // Range-kernel input, reused across rounds: one slice of chunk
  // streams, and the round's bucket boundaries in throw indices.
  core::StreamRegions regions_;
  std::vector<std::uint64_t> bucket_ends_;
  core::SweepShard sweep_;
};

}  // namespace iba::dist
