#include "core/arena.hpp"

#include "common/assert.hpp"

namespace iba::core {

Arena::~Arena() {
  for (const Block& block : blocks_) {
    ::operator delete(block.ptr, std::align_val_t{64});
  }
}

void* Arena::allocate(std::size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  ++allocation_count_;
  void* ptr = ::operator new(bytes, std::align_val_t{64});
  std::memset(ptr, 0, bytes);
  blocks_.push_back({ptr, bytes});
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
    blocks_[i] = blocks_.back();
    blocks_.pop_back();
    ::operator delete(ptr, std::align_val_t{64});
    return;
  }
  IBA_ASSERT(false && "Arena::deallocate: unknown block");
}

}  // namespace iba::core
