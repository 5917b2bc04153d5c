#include "core/bin_samplers.hpp"

#include "common/assert.hpp"
#include "core/capped.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

WeightedBinSampler::WeightedBinSampler(std::uint32_t n,
                                       const std::vector<double>& weights)
    : table_([&] {
        IBA_EXPECT(weights.size() == n,
                   "WeightedBinSampler: need exactly one weight per bin");
        return rng::AliasTable(weights);
      }()) {}

GreedyChoiceSampler::GreedyChoiceSampler(const Capped& process,
                                         std::uint32_t d)
    : process_(process), d_(d) {
  IBA_EXPECT(d >= 1, "GreedyChoiceSampler: d must be at least 1");
}

void GreedyChoiceSampler::fill(Engine& engine, std::span<std::uint32_t> out) {
  // fill() runs before the round's acceptance, so load() is the
  // start-of-round load for every draw of the batch.
  const std::uint32_t n = process_.n();
  for (auto& choice : out) {
    std::uint32_t best = rng::bounded32(engine, n);
    std::uint64_t best_load = process_.load(best);
    for (std::uint32_t k = 1; k < d_; ++k) {
      const std::uint32_t candidate = rng::bounded32(engine, n);
      const std::uint64_t load = process_.load(candidate);
      if (load < best_load) {
        best = candidate;
        best_load = load;
      }
    }
    choice = best;
  }
}

}  // namespace iba::core
