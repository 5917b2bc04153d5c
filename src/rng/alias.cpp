#include "rng/alias.hpp"

#include <cmath>

namespace iba::rng {

AliasTable::AliasTable(const std::vector<double>& weights) {
  IBA_EXPECT(!weights.empty(), "AliasTable: needs at least one weight");
  double total = 0.0;
  for (const double w : weights) {
    IBA_EXPECT(std::isfinite(w), "AliasTable: weights must be finite");
    IBA_EXPECT(w >= 0.0, "AliasTable: weights must be non-negative");
    total += w;
  }
  IBA_EXPECT(std::isfinite(total), "AliasTable: weight sum must be finite");
  IBA_EXPECT(total > 0.0, "AliasTable: weights must not all be zero");

  // Vose, in place: scale to mean 1 straight into the slots, split into
  // under-/over-full outcomes, and pair each under-full slot with an
  // over-full alias. One worklist holds both stacks: small grows up from
  // 0, large grows down from k.
  const std::size_t k = weights.size();
  slots_.set_arena(&arena_);
  slots_.resize(k);
  std::vector<std::uint32_t> work(k);
  std::size_t small = 0;
  std::size_t large = k;
  for (std::size_t i = 0; i < k; ++i) {
    const double scaled = weights[i] / total * static_cast<double>(k);
    slots_[i] = {scaled, static_cast<std::uint32_t>(i)};
    if (scaled < 1.0) {
      work[small++] = static_cast<std::uint32_t>(i);
    } else {
      work[--large] = static_cast<std::uint32_t>(i);
    }
  }
  while (small > 0 && large < k) {
    const std::uint32_t s = work[--small];
    const std::uint32_t l = work[large];
    slots_[s].alias = l;
    slots_[l].p -= 1.0 - slots_[s].p;
    if (slots_[l].p < 1.0) {
      ++large;
      work[small++] = l;
    }
  }
  // A slot was paired exactly when its alias moved off itself; the rest
  // (rounding leftovers) keep probability 1.
  for (std::size_t i = 0; i < k; ++i) {
    if (slots_[i].alias == i) slots_[i].p = 1.0;
  }
}

std::vector<double> AliasTable::outcome_probabilities() const {
  const std::size_t k = slots_.size();
  std::vector<double> mass(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    mass[j] += slots_[j].p;
    if (slots_[j].alias != j) mass[slots_[j].alias] += 1.0 - slots_[j].p;
  }
  for (double& m : mass) m /= static_cast<double>(k);
  return mass;
}

}  // namespace iba::rng
