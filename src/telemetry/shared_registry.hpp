// Mutex-guarded registry wrapper for cross-thread aggregation: worker
// threads merge their private registries (or record directly inside
// with()), readers take consistent snapshots. Note that concurrent merges
// arrive in scheduling order — callers needing byte-reproducible exports
// across thread counts should instead keep one Registry per worker and
// merge them in a fixed order after joining.
#pragma once

#include <mutex>
#include <utility>

#include "telemetry/registry.hpp"

namespace iba::telemetry {

class SharedRegistry {
 public:
  /// Thread-safe merge of a privately built registry.
  void merge(const Registry& other) {
    const std::lock_guard lock(mutex_);
    registry_.merge(other);
  }

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
