// Batch GREEDY[d] with leaky bins — the baseline process of Berenbrink,
// Friedetzky, Kling, Mallmann-Trenn, Nagel, Wastell [PODC'16 /
// Algorithmica'18] that the paper's Section I-B compares against.
//
// Per round: λn new balls arrive; each ball samples d bins independently
// and uniformly at random and commits to the one with the smallest load
// *at the beginning of the round* (the batch does not observe itself;
// ties broken uniformly among the sampled minima); bins have unbounded
// FIFO queues; at the end of the round every non-empty bin deletes its
// front ball. d = 1 is the 1-choice process, the c = ∞ limit of
// CAPPED(c, λ): core::Capped takes only finite c, so this class is the
// way to run CAPPED(∞, λ) (`simulate --process greedy --d 1`). d = 2 is
// the 2-choice process whose waiting time is Θ(log n) for constant λ —
// the bound CAPPED improves to log log n + O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "queueing/unbounded_bin_table.hpp"

namespace iba::core {

struct BatchGreedyConfig {
  std::uint32_t n = 0;
  std::uint32_t d = 1;         ///< choices per ball
  std::uint64_t lambda_n = 0;  ///< λ·n, new balls per round

  [[nodiscard]] double lambda() const noexcept {
    return n == 0 ? 0.0
                  : static_cast<double>(lambda_n) / static_cast<double>(n);
  }

  void validate() const;
};

/// The batch GREEDY[d] process. Deterministic given (config, engine).
class BatchGreedy {
 public:
  BatchGreedy(const BatchGreedyConfig& config, Engine engine);

  RoundMetrics step();

  [[nodiscard]] std::uint32_t n() const noexcept { return config_.n; }
  [[nodiscard]] std::uint32_t d() const noexcept { return config_.d; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t load(std::uint32_t i) const noexcept {
    return bins_.load(i);
  }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return bins_.total_load();
  }
  [[nodiscard]] std::uint64_t max_load() const noexcept {
    return bins_.max_load();
  }
  [[nodiscard]] const WaitRecorder& waits() const noexcept { return waits_; }
  void reset_wait_stats() noexcept { waits_.reset(); }

 private:
  BatchGreedyConfig config_;
  Engine engine_;
  std::uint64_t round_ = 0;
  queueing::UnboundedBinTable bins_;
  std::vector<std::uint64_t> load_snapshot_;
  WaitRecorder waits_;
};

static_assert(AllocationProcess<BatchGreedy>);

}  // namespace iba::core
