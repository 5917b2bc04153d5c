#include "core/oracle.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

OracleCapped::OracleCapped(const CappedConfig& config, Engine engine)
    : config_(config), engine_(engine), bins_(config.n) {
  config_.validate();
}

RoundMetrics OracleCapped::step() {
  std::vector<std::uint32_t> choices(balls_to_throw());
  for (auto& choice : choices) choice = rng::bounded32(engine_, config_.n);
  return step_with_choices(choices);
}

RoundMetrics OracleCapped::step_with_choices(
    std::span<const std::uint32_t> choices) {
  IBA_EXPECT(choices.size() == balls_to_throw(),
             "OracleCapped: need one choice per thrown ball");
  ++round_;
  for (std::uint64_t k = 0; k < config_.lambda_n; ++k) {
    pool_.push_back({round_});
  }

  RoundMetrics m;
  m.round = round_;
  m.generated = config_.lambda_n;
  m.thrown = pool_.size();

  // Gather requests: per bin, the indices of the balls that chose it.
  std::vector<std::vector<std::size_t>> requests(config_.n);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    requests[choices[i]].push_back(i);
  }

  // Each bin sorts its requests by age and accepts the oldest
  // min{c − ℓ, ν}; ties (equal labels) broken by pool position.
  std::vector<bool> accepted(pool_.size(), false);
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    auto& req = requests[bin];
    if (req.empty()) continue;
    std::stable_sort(req.begin(), req.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pool_[a].label < pool_[b].label;
                     });
    const std::uint64_t room =
        config_.capacity - std::min<std::uint64_t>(config_.capacity,
                                                   bins_[bin].size());
    const std::size_t take = std::min<std::size_t>(req.size(), room);
    for (std::size_t i = 0; i < take; ++i) {
      bins_[bin].push_back(pool_[req[i]].label);
      accepted[req[i]] = true;
      ++m.accepted;
    }
  }

  // Survivors stay in the pool (order preserved → still oldest-first).
  std::vector<Ball> survivors;
  survivors.reserve(pool_.size() - m.accepted);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (!accepted[i]) survivors.push_back(pool_[i]);
  }
  pool_ = std::move(survivors);

  // FIFO deletion.
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    if (bins_[bin].empty()) continue;
    const std::uint64_t label = bins_[bin].front();
    bins_[bin].pop_front();
    const std::uint64_t wait = round_ - label;
    waits_.record(wait);
    ++m.deleted;
    ++m.wait_count;
    m.wait_sum += static_cast<double>(wait);
    if (wait > m.wait_max) m.wait_max = wait;
  }

  m.pool_size = pool_.size();
  m.total_load = total_load();
  std::uint64_t max_load = 0;
  std::uint32_t empty = 0;
  for (const auto& q : bins_) {
    max_load = std::max<std::uint64_t>(max_load, q.size());
    if (q.empty()) ++empty;
  }
  m.max_load = max_load;
  m.empty_bins = empty;
  return m;
}

std::uint64_t OracleCapped::total_load() const noexcept {
  return std::accumulate(
      bins_.begin(), bins_.end(), std::uint64_t{0},
      [](std::uint64_t acc, const auto& q) { return acc + q.size(); });
}

}  // namespace iba::core
