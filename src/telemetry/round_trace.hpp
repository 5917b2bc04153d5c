// Bounded round-event tracing: a lock-free single-producer single-consumer
// ring of RoundMetrics-derived events with drop counting.
//
// The simulation thread pushes one RoundEvent per round; a tailer thread
// (exporter, live dashboard) pops at its own pace. When the consumer falls
// behind, events are dropped — and counted — instead of growing memory,
// so an arbitrarily long run can be tailed with a fixed footprint.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "core/metrics.hpp"

namespace iba::telemetry {

/// Wait-free SPSC ring over trivially copyable T. Capacity is rounded up
/// to a power of two. Exactly one producer thread may call try_push and
/// exactly one consumer thread may call try_pop.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity)
      : slots_(std::bit_ceil(min_capacity < 2 ? std::size_t{2}
                                              : min_capacity)),
        mask_(slots_.size() - 1) {
    IBA_EXPECT(min_capacity > 0, "SpscRing: capacity must be positive");
  }

  /// Producer side. Returns false (and counts a drop) when full.
  bool try_push(const T& value) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Events rejected because the consumer was behind (producer-counted).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events currently buffered. Exact only when both sides are quiescent.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

/// One traced simulation round: the full RoundMetrics snapshot plus the
/// wall-clock cost of the step that produced it (0 when not timed).
struct RoundEvent {
  core::RoundMetrics metrics;
  std::uint64_t step_ns = 0;
};

using RoundTrace = SpscRing<RoundEvent>;

}  // namespace iba::telemetry
