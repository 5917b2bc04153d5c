// Unit tests of the core::Arena allocation counter and the grow-only
// ArenaBuffer that fronts it: zeroing and alignment guarantees of heap
// and huge-page-mapped blocks, allocation accounting (the "no
// allocations at steady state" signal), and the buffer's
// geometric-growth / content-preservation contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/arena.hpp"

namespace {

using iba::core::Arena;
using iba::core::ArenaBuffer;

bool all_zero(const void* ptr, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(ptr);
  for (std::size_t i = 0; i < bytes; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

TEST(Arena, SmallAllocationsComeFromTheHeapZeroedAndAligned) {
  Arena arena;
  void* ptr = arena.allocate(4096);
  ASSERT_NE(ptr, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) % 64, 0u);
  EXPECT_TRUE(all_zero(ptr, 4096));
  EXPECT_EQ(arena.allocation_count(), 1u);
  EXPECT_EQ(arena.live_bytes(), 4096u);
  arena.deallocate(ptr);
  EXPECT_EQ(arena.live_bytes(), 0u);
  EXPECT_EQ(arena.allocation_count(), 1u);  // cumulative
}

bool huge_aligned(const void* ptr) {
  return reinterpret_cast<std::uintptr_t>(ptr) % Arena::kHugePage == 0;
}

TEST(Arena, MappedBlocksComeBackZeroedAndHugePageAligned) {
  // 2 MiB exactly (the threshold), a length the mapping rounds up, and a
  // 64 MiB bin-table-sized block.
  for (const std::size_t bytes : {Arena::kHugePage, Arena::kHugePage + 12345,
                                   std::size_t{64} << 20}) {
    Arena arena;
    void* ptr = arena.allocate(bytes);
    ASSERT_NE(ptr, nullptr);
    EXPECT_TRUE(huge_aligned(ptr)) << bytes;
    EXPECT_TRUE(all_zero(ptr, bytes)) << bytes;
    std::memset(ptr, 0xAB, bytes);  // the whole block is writable
    EXPECT_EQ(arena.live_bytes(), bytes);
    arena.deallocate(ptr);
    EXPECT_EQ(arena.live_bytes(), 0u);
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ArenaDeathTest, ReadPastMappedBlockEndIsReported) {
  // The mapping's rounding slack is poisoned, so AddressSanitizer still
  // sees the block's true end.
  Arena arena;
  const std::size_t bytes = Arena::kHugePage + 100;
  auto* ptr = static_cast<volatile unsigned char*>(arena.allocate(bytes));
  EXPECT_DEATH((void)ptr[bytes], "use-after-poison");
}
#endif

TEST(Arena, FreedThenReallocatedBlockIsZero) {
  // Heap and mapped blocks alike: a block reused after a dirty free
  // still comes back zeroed.
  for (const std::size_t bytes :
       {std::size_t{4096}, Arena::kHugePage, std::size_t{8} << 20}) {
    Arena arena;
    void* first = arena.allocate(bytes);
    std::memset(first, 0xFF, bytes);
    arena.deallocate(first);
    void* second = arena.allocate(bytes);
    EXPECT_TRUE(all_zero(second, bytes)) << bytes;
    arena.deallocate(second);
    EXPECT_EQ(arena.live_bytes(), 0u);
  }
}

TEST(Arena, AllocationCountCountsHeapAndMappedBlocksAlike) {
  Arena arena;
  void* small = arena.allocate(64);
  void* large = arena.allocate(std::size_t{4} << 20);
  EXPECT_EQ(arena.allocation_count(), 2u);
  EXPECT_EQ(arena.live_bytes(), 64u + (std::size_t{4} << 20));
  arena.deallocate(large);
  arena.deallocate(small);
  EXPECT_EQ(arena.allocation_count(), 2u);  // cumulative, not live
  EXPECT_EQ(arena.live_bytes(), 0u);
  (void)arena.allocate(0);  // no block, no count
  EXPECT_EQ(arena.allocation_count(), 2u);
}

TEST(Arena, ZeroBytesReturnsNull) {
  Arena arena;
  EXPECT_EQ(arena.allocate(0), nullptr);
  arena.deallocate(nullptr);  // no-op
  EXPECT_EQ(arena.allocation_count(), 0u);
}

TEST(Arena, DestructorReleasesOutstandingBlocks) {
  // Blocks not explicitly deallocated are reclaimed by the destructor
  // (ASan would flag a leak here).
  Arena arena;
  (void)arena.allocate(512);
  (void)arena.allocate(std::size_t{4} << 20);
  EXPECT_EQ(arena.allocation_count(), 2u);
}

TEST(ArenaBuffer, ResizePreservesContentsAndZeroesFreshCapacity) {
  ArenaBuffer<std::uint32_t> buffer;  // heap-backed (no arena attached)
  buffer.resize(100);
  EXPECT_TRUE(all_zero(buffer.data(), 100 * sizeof(std::uint32_t)));
  std::iota(buffer.begin(), buffer.end(), 1u);
  buffer.resize(1000);
  ASSERT_EQ(buffer.size(), 1000u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(buffer[i], i + 1) << "grow lost element " << i;
  }
  // Capacity beyond the old size was never written: still zero.
  for (std::size_t i = 100; i < 1000; ++i) {
    EXPECT_EQ(buffer[i], 0u) << "fresh element " << i << " not zeroed";
  }
}

TEST(ArenaBuffer, GrowingAcrossTheHugePageThresholdKeepsContents) {
  // From a heap block to a mapped one: the copied prefix survives and
  // the fresh tail is zero.
  Arena arena;
  ArenaBuffer<std::uint64_t> buffer;
  buffer.set_arena(&arena);
  const std::size_t before = (Arena::kHugePage / sizeof(std::uint64_t)) / 2;
  buffer.resize(before);
  std::iota(buffer.begin(), buffer.end(), std::uint64_t{1});
  const std::size_t after = 3 * Arena::kHugePage / sizeof(std::uint64_t);
  buffer.resize(after);
  EXPECT_TRUE(huge_aligned(buffer.data()));
  EXPECT_EQ(arena.allocation_count(), 2u);
  for (std::size_t i = 0; i < before; ++i) {
    ASSERT_EQ(buffer[i], i + 1) << "grow lost element " << i;
  }
  EXPECT_TRUE(all_zero(buffer.data() + before,
                       (after - before) * sizeof(std::uint64_t)));
  EXPECT_EQ(arena.live_bytes(), buffer.capacity() * sizeof(std::uint64_t));
}

TEST(ArenaBuffer, ShrinkThenRegrowDoesNotReallocate) {
  Arena arena;
  ArenaBuffer<std::uint64_t> buffer;
  buffer.set_arena(&arena);
  buffer.resize(5000);
  const std::uint64_t allocs = arena.allocation_count();
  const std::uint64_t* data = buffer.data();
  // The round loop's pattern: resize down and up within capacity.
  for (int round = 0; round < 50; ++round) {
    buffer.resize(4000 + static_cast<std::size_t>(round) % 1000);
  }
  buffer.clear();
  buffer.resize(5000);
  EXPECT_EQ(arena.allocation_count(), allocs)
      << "within-capacity resizes must not allocate";
  EXPECT_EQ(buffer.data(), data);
}

TEST(ArenaBuffer, GeometricGrowthAbsorbsJitter) {
  // Growing by a whisker (the ±√ν round-to-round throw jitter) must
  // reallocate at most once more: geometric headroom covers the rest.
  ArenaBuffer<std::uint32_t> buffer;
  buffer.resize(1'000'000);
  buffer.resize(1'000'500);  // first wobble: grows with 50% headroom
  const std::size_t settled = buffer.capacity();
  for (std::size_t jitter = 0; jitter < 5000; jitter += 500) {
    buffer.resize(1'000'500 + jitter);
  }
  EXPECT_EQ(buffer.capacity(), settled)
      << "headroom should absorb subsequent jitter";
}

TEST(ArenaBuffer, AssignFillsExactly) {
  ArenaBuffer<std::uint32_t> buffer;
  buffer.assign(257, 7u);
  ASSERT_EQ(buffer.size(), 257u);
  for (const std::uint32_t v : buffer) EXPECT_EQ(v, 7u);
  buffer.assign(100, 9u);
  ASSERT_EQ(buffer.size(), 100u);
  for (const std::uint32_t v : buffer) EXPECT_EQ(v, 9u);
}

TEST(ArenaBuffer, MoveTransfersOwnership) {
  Arena arena;
  ArenaBuffer<std::uint32_t> a;
  a.set_arena(&arena);
  a.resize(300'000);
  a[0] = 42;
  const std::uint32_t* data = a.data();
  ArenaBuffer<std::uint32_t> b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.size(), 300'000u);
  EXPECT_EQ(b[0], 42u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);

  ArenaBuffer<std::uint32_t> c;
  c.resize(10);
  c = std::move(b);
  EXPECT_EQ(c.data(), data);
  EXPECT_EQ(c[0], 42u);
}

}  // namespace
