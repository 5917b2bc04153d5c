// UnboundedBinTable — bins without a capacity limit, for the batch
// GREEDY[d] of Berenbrink et al. [PODC'16] (core/greedy.hpp; d = 1 is
// the c = ∞ limit of CAPPED).
//
// Each bin is a grow-only vector with a head cursor; the storage is
// compacted when the dead prefix dominates, giving amortized O(1)
// push/pop without std::deque's per-block allocation churn.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace iba::queueing {

/// n unbounded FIFO queues of ball labels.
class UnboundedBinTable {
 public:
  using Label = std::uint64_t;

  explicit UnboundedBinTable(std::uint32_t bins);

  void push(std::uint32_t bin, Label label) {
    IBA_ASSERT(bin < queues_.size());
    queues_[bin].items.push_back(label);
    ++total_load_;
  }

  [[nodiscard]] Label pop_front(std::uint32_t bin) {
    IBA_ASSERT(bin < queues_.size());
    Queue& q = queues_[bin];
    IBA_ASSERT(q.head < q.items.size());
    --total_load_;
    const Label label = q.items[q.head++];
    if (q.head >= 64 && q.head * 2 >= q.items.size()) q.compact();
    return label;
  }

  [[nodiscard]] std::uint64_t load(std::uint32_t bin) const noexcept {
    IBA_ASSERT(bin < queues_.size());
    return queues_[bin].items.size() - queues_[bin].head;
  }

  [[nodiscard]] std::uint32_t bins() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return total_load_;
  }

  [[nodiscard]] std::uint64_t max_load() const noexcept;
  [[nodiscard]] std::uint32_t empty_bins() const noexcept;

 private:
  struct Queue {
    std::vector<Label> items;
    std::size_t head = 0;

    void compact() {
      items.erase(items.begin(),
                  items.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  };

  std::vector<Queue> queues_;
  std::uint64_t total_load_ = 0;
};

}  // namespace iba::queueing
