// Mutex-guarded registry wrapper for cross-thread aggregation: writer
// threads record inside with(), readers take consistent snapshots.
#pragma once

#include <mutex>
#include <utility>

#include "telemetry/registry.hpp"

namespace iba::telemetry {

class SharedRegistry {
 public:
  /// Runs `fn(Registry&)` under the lock for direct recording.
  template <typename Fn>
  auto with(Fn&& fn) {
    const std::lock_guard lock(mutex_);
    return std::forward<Fn>(fn)(registry_);
  }

  /// Consistent copy for exporting while writers continue.
  [[nodiscard]] Registry snapshot() const {
    const std::lock_guard lock(mutex_);
    return registry_;
  }

 private:
  mutable std::mutex mutex_;
  Registry registry_;
};

}  // namespace iba::telemetry
