// BinTable — the bins of CAPPED(c, λ): n FIFO queues of ball labels, each
// with capacity c, laid out in one flat n×c array (cache-friendly, zero
// per-bin allocation). This is the hot data structure of the simulator.
//
// Slot arithmetic uses conditional wrap instead of `% capacity_`: every
// index that needs wrapping is < 2·capacity by construction (head < c,
// size ≤ c), so one compare-and-subtract replaces an integer division in
// ops that are otherwise one load/store.
//
// Per-bin head and size share one 32-bit word (head in the high 16
// bits, size in the low 16 — hence capacity ≤ 65535). The round
// kernel's hot loops then touch a single cache line per bin for cursor
// state instead of two, and a push is one +1 on the packed word.
//
// The remove_at / drain_bulk / adjust_total_load API exists for the
// range kernel (core/range_kernel.cpp): shards own disjoint bin ranges,
// so per-bin state is race-free, but total_load_ is shared — these
// operations defer it and the kernel commits the merged delta once.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "core/arena.hpp"

namespace iba::queueing {

/// Every queue of a bin table as two flat arrays: the load of each bin,
/// and all labels front-first (next-to-delete first), concatenated in
/// bin order — bin b's queue is the loads[b] labels after the first
/// Σ_{i<b} loads[i]. The form snapshots, checkpoints and dist shard
/// files carry; a bin range is a contiguous slice of both arrays.
struct BinQueues {
  std::vector<std::uint32_t> loads;
  std::vector<std::uint64_t> labels;

  bool operator==(const BinQueues&) const = default;
};

/// n bounded FIFO queues of 64-bit ball labels. Queue order is insertion
/// order; pop_front() implements the paper's FIFO deletion.
class BinTable {
 public:
  using Label = std::uint64_t;

  /// Decoding of the packed per-bin cursor word (see packed_mut()).
  static constexpr std::uint32_t kSizeMask = 0xFFFFu;
  static constexpr std::uint32_t kHeadShift = 16;

  /// With an arena, the flat label and cursor arrays are allocated
  /// through it, so its allocation count covers them; without one they
  /// come straight from the heap. The arena must outlive the table.
  explicit BinTable(std::uint32_t bins, std::uint32_t capacity,
                    core::Arena* arena = nullptr);

  /// Enqueues `label` at bin `bin`. Precondition: load(bin) < capacity().
  void push(std::uint32_t bin, Label label) noexcept {
    IBA_ASSERT(bin < bins_);
    const std::uint32_t hs = hs_[bin];
    const std::uint32_t size = hs & kSizeMask;
    IBA_ASSERT(size < capacity_);
    std::uint32_t slot = (hs >> kHeadShift) + size;
    if (slot >= capacity_) slot -= capacity_;
    labels_[static_cast<std::size_t>(bin) * capacity_ + slot] = label;
    hs_[bin] = hs + 1;
    ++total_load_;
  }

  /// Dequeues and returns the oldest-enqueued label of bin `bin`.
  [[nodiscard]] Label pop_front(std::uint32_t bin) noexcept {
    --total_load_;
    return remove_at(bin, 0);
  }

  /// Dequeues and returns the newest-enqueued label of bin `bin`
  /// (LIFO service — used by the deletion-discipline ablation).
  [[nodiscard]] Label pop_back(std::uint32_t bin) noexcept {
    IBA_ASSERT(bin < bins_);
    IBA_ASSERT((hs_[bin] & kSizeMask) > 0);
    --total_load_;
    return remove_at(bin, (hs_[bin] & kSizeMask) - 1);
  }

  /// Removes and returns the label `i` positions behind the front,
  /// preserving the relative order of the remainder (O(c) shift —
  /// capacities are small). Used by uniform-random service.
  [[nodiscard]] Label pop_at(std::uint32_t bin, std::uint32_t i) noexcept {
    --total_load_;
    return remove_at(bin, i);
  }

  /// pop_at without the total_load_ update — the sharded delete phase
  /// calls this from worker threads and commits the count afterwards
  /// via adjust_total_load(). Position 0 / size-1 take O(1) fast paths.
  [[nodiscard]] Label remove_at(std::uint32_t bin, std::uint32_t i) noexcept {
    IBA_ASSERT(bin < bins_);
    const std::uint32_t hs = hs_[bin];
    const std::uint32_t size = hs & kSizeMask;
    const std::uint32_t head = hs >> kHeadShift;
    IBA_ASSERT(i < size);
    const std::size_t base = static_cast<std::size_t>(bin) * capacity_;
    if (i == 0) {  // front: advance the head cursor
      const std::uint32_t next = head + 1 == capacity_ ? 0 : head + 1;
      hs_[bin] = (next << kHeadShift) | (size - 1);
      return labels_[base + head];
    }
    hs_[bin] = hs - 1;  // head unchanged, size - 1
    std::uint32_t cur = head + i;
    if (cur >= capacity_) cur -= capacity_;
    const Label label = labels_[base + cur];
    // Shift the suffix forward one slot (no-op when i was the back).
    for (std::uint32_t k = i; k < size - 1; ++k) {
      const std::uint32_t next = cur + 1 == capacity_ ? 0 : cur + 1;
      labels_[base + cur] = labels_[base + next];
      cur = next;
    }
    return label;
  }

  /// Empties bin `bin`, calling `sink(label)` in front-to-back order
  /// (crash-requeue). Defers total_load_.
  template <typename Sink>
  void drain_bulk(std::uint32_t bin, Sink&& sink) noexcept {
    IBA_ASSERT(bin < bins_);
    const std::uint32_t hs = hs_[bin];
    const std::uint32_t size = hs & kSizeMask;
    const std::size_t base = static_cast<std::size_t>(bin) * capacity_;
    std::uint32_t cur = hs >> kHeadShift;
    for (std::uint32_t k = 0; k < size; ++k) {
      sink(labels_[base + cur]);
      cur = cur + 1 == capacity_ ? 0 : cur + 1;
    }
    hs_[bin] = 0;
  }

  /// Commits the total-load delta of preceding bulk/deferred operations.
  /// Callers serialize this (the kernel sums per-shard deltas first).
  void adjust_total_load(std::int64_t delta) noexcept {
    total_load_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(total_load_) + delta);
  }

  [[nodiscard]] std::uint32_t load(std::uint32_t bin) const noexcept {
    IBA_ASSERT(bin < bins_);
    return hs_[bin] & kSizeMask;
  }

  /// Label `i` positions behind the front of `bin` (0 = next to delete).
  [[nodiscard]] Label peek(std::uint32_t bin, std::uint32_t i) const noexcept {
    IBA_ASSERT(bin < bins_);
    IBA_ASSERT(i < (hs_[bin] & kSizeMask));
    std::uint32_t slot = (hs_[bin] >> kHeadShift) + i;
    if (slot >= capacity_) slot -= capacity_;
    return labels_[static_cast<std::size_t>(bin) * capacity_ + slot];
  }

  [[nodiscard]] std::uint32_t bins() const noexcept { return bins_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return total_load_;
  }

  /// Raw mutable views of the per-bin arrays for the range kernel
  /// (core/range_kernel.cpp): its chunked sweep updates the packed
  /// cursors and labels in place; its caller commits the total-load
  /// delta once per round via adjust_total_load().
  [[nodiscard]] std::uint32_t* packed_mut() noexcept { return hs_.data(); }
  [[nodiscard]] Label* labels_mut() noexcept { return labels_.data(); }

  /// Re-lays the table out for a larger per-bin capacity, preserving
  /// every queue's contents and FIFO order (each queue is rewritten at
  /// head 0 in the widened flat array). O(n·c′) — called only at a
  /// controller's rare capacity-grow decisions, never on the round hot
  /// path. Shrinking storage is never needed: a lowered *acceptance*
  /// bound drains naturally (core/capped.cpp), and slot arithmetic is
  /// indifferent to spare slots.
  void grow_capacity(std::uint32_t new_capacity);

  /// Every queue, front-first (O(n + total load)).
  [[nodiscard]] BinQueues queues() const;

  /// Loads `queues` into this table, which must be empty: each queue is
  /// laid out from head 0, as pushing its labels in order would. Throws
  /// ContractViolation unless there is one load per bin, no load exceeds
  /// capacity() and the labels number exactly Σ loads.
  void restore(const BinQueues& queues);

  /// Maximum end-of-round load over all bins (O(n) scan).
  [[nodiscard]] std::uint32_t max_load() const noexcept;

  /// Number of bins with load 0 (O(n) scan).
  [[nodiscard]] std::uint32_t empty_bins() const noexcept;

  void clear() noexcept;

 private:
  std::uint32_t bins_;
  std::uint32_t capacity_;
  std::uint64_t total_load_ = 0;
  core::Arena* arena_ = nullptr;         // not owned; may be null
  core::ArenaBuffer<Label> labels_;      // n × c slots
  core::ArenaBuffer<std::uint32_t> hs_;  // head<<16 | size, per bin
};

}  // namespace iba::queueing
