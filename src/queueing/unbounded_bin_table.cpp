#include "queueing/unbounded_bin_table.hpp"

#include <algorithm>

namespace iba::queueing {

UnboundedBinTable::UnboundedBinTable(std::uint32_t bins) : queues_(bins) {
  IBA_EXPECT(bins > 0, "UnboundedBinTable: needs at least one bin");
}

std::uint64_t UnboundedBinTable::max_load() const noexcept {
  std::uint64_t best = 0;
  for (const Queue& q : queues_) {
    best = std::max<std::uint64_t>(best, q.items.size() - q.head);
  }
  return best;
}

std::uint32_t UnboundedBinTable::empty_bins() const noexcept {
  std::uint32_t count = 0;
  for (const Queue& q : queues_) {
    if (q.items.size() == q.head) ++count;
  }
  return count;
}

}  // namespace iba::queueing
