#include "core/arena.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <limits>

#include "common/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define IBA_ARENA_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define IBA_ARENA_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define IBA_ARENA_POISON(addr, size) ((void)(addr), (void)(size))
#define IBA_ARENA_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace iba::core {

namespace {

// A 2 MiB-aligned private anonymous mapping of `mapped` bytes (a multiple
// of kHugePage), advised for transparent huge pages. Over-maps by one huge
// page and trims both ends so the start is aligned. The kernel hands out
// zero pages, so no memset: the first write to each 2 MiB faults in one
// huge page (or 512 small ones when THP is off) instead of a memset
// faulting 4 KiB at a time.
void* map_huge(std::size_t mapped) {
  void* raw = ::mmap(nullptr, mapped + Arena::kHugePage,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned =
      (start + Arena::kHugePage - 1) & ~(std::uintptr_t{Arena::kHugePage} - 1);
  const std::size_t head = aligned - start;
  const std::size_t tail = Arena::kHugePage - head;
  if (head > 0) ::munmap(raw, head);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(aligned + mapped), tail);
  void* ptr = reinterpret_cast<void*>(aligned);
  // Advice only: without THP (setting "never") the block is still valid,
  // zeroed memory on small pages.
  (void)::madvise(ptr, mapped, MADV_HUGEPAGE);
  return ptr;
}

void release(void* ptr, std::size_t mapped) noexcept {
  if (mapped == 0) {
    ::operator delete(ptr, std::align_val_t{64});
    return;
  }
  IBA_ARENA_UNPOISON(ptr, mapped);
  ::munmap(ptr, mapped);
}

}  // namespace

Arena::~Arena() {
  for (const Block& block : blocks_) {
    release(block.ptr, block.mapped);
  }
}

void* Arena::allocate(std::size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  ++allocation_count_;
  void* ptr = nullptr;
  std::size_t mapped = 0;
  if (bytes >= kHugePage) {
    if (bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePage) {
      throw std::bad_alloc();
    }
    mapped = (bytes + kHugePage - 1) & ~(kHugePage - 1);
    ptr = map_huge(mapped);
    // ASan does not track mmap'd memory: mark the rounding slack past
    // the block's end so a read beyond `bytes` is still reported.
    IBA_ARENA_POISON(static_cast<char*>(ptr) + bytes, mapped - bytes);
  } else {
    ptr = ::operator new(bytes, std::align_val_t{64});
    std::memset(ptr, 0, bytes);
  }
  blocks_.push_back({ptr, bytes, mapped});
  live_bytes_ += bytes;
  return ptr;
}

void Arena::deallocate(void* ptr) noexcept {
  if (ptr == nullptr) {
    return;
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].ptr != ptr) {
      continue;
    }
    live_bytes_ -= blocks_[i].bytes;
    const std::size_t mapped = blocks_[i].mapped;
    blocks_[i] = blocks_.back();
    blocks_.pop_back();
    release(ptr, mapped);
    return;
  }
  IBA_ASSERT(false && "Arena::deallocate: unknown block");
}

}  // namespace iba::core
