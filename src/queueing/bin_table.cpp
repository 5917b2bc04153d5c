#include "queueing/bin_table.hpp"

#include <algorithm>

namespace iba::queueing {

BinTable::BinTable(std::uint32_t bins, std::uint32_t capacity,
                   core::Arena* arena)
    : bins_(bins), capacity_(capacity), arena_(arena) {
  IBA_EXPECT(bins > 0, "BinTable: needs at least one bin");
  IBA_EXPECT(capacity > 0, "BinTable: capacity must be positive");
  IBA_EXPECT(capacity <= kSizeMask,
             "BinTable: capacity must fit the packed 16-bit size field");
  labels_.set_arena(arena);
  hs_.set_arena(arena);
  // Fresh blocks are zeroed, so resize (not assign) leaves every bin
  // empty.
  labels_.resize(static_cast<std::size_t>(bins) * capacity);
  hs_.resize(bins);
}

void BinTable::grow_capacity(std::uint32_t new_capacity) {
  IBA_EXPECT(new_capacity >= capacity_,
             "BinTable: grow_capacity cannot shrink the storage");
  IBA_EXPECT(new_capacity <= kSizeMask,
             "BinTable: capacity must fit the packed 16-bit size field");
  if (new_capacity == capacity_) return;
  core::ArenaBuffer<Label> widened;
  widened.set_arena(arena_);
  widened.resize(static_cast<std::size_t>(bins_) * new_capacity);
  for (std::uint32_t bin = 0; bin < bins_; ++bin) {
    const std::uint32_t hs = hs_[bin];
    const std::uint32_t size = hs & kSizeMask;
    std::uint32_t cur = hs >> kHeadShift;
    const std::size_t src = static_cast<std::size_t>(bin) * capacity_;
    const std::size_t dst = static_cast<std::size_t>(bin) * new_capacity;
    for (std::uint32_t k = 0; k < size; ++k) {
      widened[dst + k] = labels_[src + cur];
      cur = cur + 1 == capacity_ ? 0 : cur + 1;
    }
    hs_[bin] = size;  // head 0, same size
  }
  labels_ = std::move(widened);
  capacity_ = new_capacity;
}

BinQueues BinTable::queues() const {
  BinQueues out;
  out.loads.resize(bins_);
  std::size_t total = 0;
  for (std::uint32_t bin = 0; bin < bins_; ++bin) {
    out.loads[bin] = hs_[bin] & kSizeMask;
    total += out.loads[bin];
  }
  out.labels.resize(total);
  Label* dst = out.labels.data();
  for (std::uint32_t bin = 0; bin < bins_; ++bin) {
    const std::uint32_t size = out.loads[bin];
    if (size == 0) continue;
    // A queue is at most two runs of the ring: head to the end of the
    // bin's slots, then the wrapped rest from slot 0.
    const std::uint32_t head = hs_[bin] >> kHeadShift;
    const Label* slots =
        labels_.data() + static_cast<std::size_t>(bin) * capacity_;
    const std::uint32_t first = std::min(size, capacity_ - head);
    dst = std::copy_n(slots + head, first, dst);
    dst = std::copy_n(slots, size - first, dst);
  }
  return out;
}

void BinTable::restore(const BinQueues& queues) {
  IBA_EXPECT(total_load_ == 0, "BinTable: restore needs an empty table");
  IBA_EXPECT(queues.loads.size() == bins_,
             "BinTable: restore needs one load per bin");
  std::size_t total = 0;
  for (const std::uint32_t load : queues.loads) {
    IBA_EXPECT(load <= capacity_, "BinTable: restored queue exceeds capacity");
    total += load;
  }
  IBA_EXPECT(total == queues.labels.size(),
             "BinTable: restored labels must number the sum of the loads");
  const Label* src = queues.labels.data();
  for (std::uint32_t bin = 0; bin < bins_; ++bin) {
    const std::uint32_t size = queues.loads[bin];
    std::copy_n(src, size,
                labels_.data() + static_cast<std::size_t>(bin) * capacity_);
    src += size;
    hs_[bin] = size;  // head 0
  }
  total_load_ = total;
}

std::uint32_t BinTable::max_load() const noexcept {
  std::uint32_t max = 0;
  for (const std::uint32_t hs : hs_) {
    if ((hs & kSizeMask) > max) max = hs & kSizeMask;
  }
  return max;
}

std::uint32_t BinTable::empty_bins() const noexcept {
  std::uint32_t empty = 0;
  for (const std::uint32_t hs : hs_) {
    empty += static_cast<std::uint32_t>((hs & kSizeMask) == 0);
  }
  return empty;
}

void BinTable::clear() noexcept {
  std::fill(hs_.begin(), hs_.end(), 0u);
  total_load_ = 0;
}

}  // namespace iba::queueing
