// Allocation counter for the round kernels' bin and scratch state.
//
// core::Capped owns one Arena; its bin table and kernel scratch buffers
// allocate through it, so allocation_count() says whether a round
// allocated. Benchmarks assert that a steady-state round allocates
// nothing (bench_kernel_throughput exits non-zero otherwise).
//
// Every block is zeroed and at least 64-byte aligned. A block of 2 MiB or
// more (the bin table, the chunk-stream regions, the choice scratch) is
// its own private anonymous mapping: 2 MiB-aligned, its length rounded up
// to 2 MiB, advised MADV_HUGEPAGE and zeroed by the kernel, so a run's
// first touch of its bin state faults 2 MiB pages instead of a memset
// faulting 4 KiB ones. Smaller blocks come from the heap and are
// memset, so a small block never holds a 2 MiB page of RSS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace iba::core {

/// Counting block allocator. All allocations return zeroed, 64-byte
/// aligned memory; blocks of kHugePage bytes or more are kHugePage-aligned
/// huge-page-advised mappings.
class Arena {
 public:
  /// Threshold, length granule and alignment of mapped blocks.
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Zeroed, 64-byte-aligned block. bytes == 0 returns nullptr.
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// Releases a block obtained from allocate(). nullptr is a no-op.
  void deallocate(void* ptr) noexcept;

  /// Cumulative number of allocate() calls — flat after warmup proves
  /// the round loop allocates nothing.
  [[nodiscard]] std::uint64_t allocation_count() const noexcept {
    return allocation_count_;
  }
  /// Bytes currently held.
  [[nodiscard]] std::size_t live_bytes() const noexcept {
    return live_bytes_;
  }

 private:
  struct Block {
    void* ptr = nullptr;
    std::size_t bytes = 0;
    std::size_t mapped = 0;  // mapping length; 0 = heap block
  };

  std::vector<Block> blocks_;
  std::uint64_t allocation_count_ = 0;
  std::size_t live_bytes_ = 0;
};

/// Grow-only flat buffer over an optional Arena (heap without one).
/// Deliberately leaner than std::vector: elements are trivial, fresh
/// capacity is logically zeroed exactly once (at allocation), and
/// resize() never re-zeroes previously used elements — every consumer
/// in the round kernels writes its range before reading it.
template <typename T>
class ArenaBuffer {
  static_assert(std::is_trivial_v<T>,
                "ArenaBuffer holds trivially copyable scratch only");

 public:
  ArenaBuffer() = default;
  ~ArenaBuffer() { release(); }

  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  ArenaBuffer(ArenaBuffer&& other) noexcept { swap(other); }
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }

  /// Attach before the first allocation (nullptr = heap).
  void set_arena(Arena* arena) noexcept { arena_ = arena; }

  void resize(std::size_t n) {
    if (n > capacity_) {
      grow(n);
    }
    size_ = n;
  }

  void assign(std::size_t n, T value) {
    resize(n);
    for (std::size_t i = 0; i < size_; ++i) {
      data_[i] = value;
    }
  }

  void clear() noexcept { size_ = 0; }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  void swap(ArenaBuffer& other) noexcept {
    std::swap(arena_, other.arena_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
  }

 private:
  void grow(std::size_t n) {
    // Geometric growth so per-round high-water wobble (e.g. Poisson
    // arrivals) settles into a fixed capacity after warmup.
    std::size_t new_capacity = capacity_ + capacity_ / 2;
    if (new_capacity < n) {
      new_capacity = n;
    }
    T* fresh;
    if (arena_ != nullptr) {
      fresh = static_cast<T*>(arena_->allocate(new_capacity * sizeof(T)));
    } else {
      fresh = static_cast<T*>(
          ::operator new(new_capacity * sizeof(T),
                         std::align_val_t{64}));
      std::memset(fresh, 0, new_capacity * sizeof(T));
    }
    if (size_ > 0) {
      std::memcpy(fresh, data_, size_ * sizeof(T));
    }
    release();
    data_ = fresh;
    capacity_ = new_capacity;
  }

  void release() noexcept {
    if (data_ == nullptr) {
      return;
    }
    if (arena_ != nullptr) {
      arena_->deallocate(data_);
    } else {
      ::operator delete(data_, std::align_val_t{64});
    }
    data_ = nullptr;
    capacity_ = 0;
    size_ = 0;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace iba::core
