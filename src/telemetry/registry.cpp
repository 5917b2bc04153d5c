#include "telemetry/registry.hpp"

namespace iba::telemetry {

Counter& Registry::counter(std::string_view name) {
  if (auto it = counters_.find(name); it != counters_.end()) {
    return it->second;
  }
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  if (auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second;
  }
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

DyadicHistogram& Registry::histogram(std::string_view name) {
  if (auto it = histograms_.find(name); it != histograms_.end()) {
    return it->second;
  }
  return histograms_.emplace(std::string(name), DyadicHistogram{})
      .first->second;
}

DyadicHistogram& Registry::histogram(std::string_view name,
                                     std::uint32_t shift) {
  if (auto it = histograms_.find(name); it != histograms_.end()) {
    IBA_EXPECT(it->second.shift() == shift,
               "Registry: histogram '" + std::string(name) +
                   "' already exists with dyadic shift " +
                   std::to_string(it->second.shift()) + ", requested " +
                   std::to_string(shift));
    return it->second;
  }
  return histograms_.emplace(std::string(name), DyadicHistogram{shift})
      .first->second;
}

void Registry::clear() noexcept {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace iba::telemetry
