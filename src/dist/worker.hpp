// dist::Worker — one bin-range shard of the distributed engine.
//
// A worker owns bins [bin_lo, bin_lo + bin_count) of the global n: no
// pool, no controller. Each round it rebuilds the master engine from
// the state the coordinator shipped and redraws the whole round's bin
// choices, bucket by bucket and oldest first — the single-process draw,
// choice for choice. It keeps only the throws that land in its range,
// replays acceptance over them in that global visit order, runs the
// paper's FIFO one-deletion-per-non-empty-bin pass, and reports exact
// integer deltas plus the engine state after the draw. Every worker
// draws the same stream from the same state, so the coordinator can
// require their post-draw states to agree; acceptance and deletion draw
// nothing, so the trajectory never depends on worker scheduling or
// message timing.
//
// The same class serves both deployments: dist_run --role worker wraps
// it around a connected TCP socket; the differential tests run it on a
// thread over one end of a socketpair.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dist/protocol.hpp"
#include "queueing/bin_table.hpp"
#include "scenario/arrival.hpp"
#include "stats/histogram.hpp"
#include "stats/int_moments.hpp"

namespace iba::dist {

class Worker {
 public:
  /// `fd` must be connected to the coordinator; the Worker does not own
  /// it. `index` is this worker's bin-range slot (announced via
  /// kMsgHello so TCP workers can connect in any order).
  Worker(int fd, std::uint32_t index) : fd_(fd), index_(index) {}

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

 private:
  void handle_init(const InitMsg& msg);
  void handle_round(const RoundMsg& msg);
  void handle_checkpoint(const CheckpointMsg& msg);

  int fd_;
  std::uint32_t index_;
  std::uint64_t n_ = 0;
  std::uint64_t bin_lo_ = 0;
  std::uint64_t bin_count_ = 0;
  std::uint64_t round_ = 0;  ///< last completed round
  std::optional<queueing::BinTable> table_;
  // The Zipf table of the last kSamplerZipf round, rebuilt when the
  // exponent changes (it is a pure function of (n, s)).
  std::optional<scenario::ZipfBinSampler> zipf_;
  std::uint64_t rounds_served_ = 0;
  // Per-round wait delta scratch, reset each round.
  stats::UintMoments wait_moments_;
  stats::Log2Histogram wait_histogram_;
};

}  // namespace iba::dist
