// The two BinChoiceSampler configurations of CAPPED beyond uniform
// choice. Both only rewrite a round's choice vector before the kernel
// runs, so every kernel and shard count stays byte-identical under them.
//
//  * WeightedBinSampler: ball i picks bin b with probability w_b / Σw
//    (Walker/Vose alias table, two engine draws per ball). fill() draws
//    in prefetched batches from one packed {p, alias} slot per bin
//    (rng/alias.hpp); rejecting batches replay through the per-ball
//    sample(), so the choices and the engine position equal one
//    sample() per ball. Over
//    capacity-proportional weights, together with
//    Capped::set_bin_capacities, this is CAPPED over non-uniform bins,
//    the paper's reference [6] (Berenbrink et al., "Balls into
//    Non-uniform Bins"); over Zipf weights it is the scenario engine's
//    hot-key skew (scenario::ZipfBinSampler).
//  * GreedyChoiceSampler: CAPPED-GREEDY(c, d, λ). Every pool ball
//    samples d bins uniformly and requests the first one with the least
//    start-of-round load; the batch does not observe itself, as in the
//    batch GREEDY[d] of [PODC'16] and Los & Sauerwald (arXiv
//    2203.13902). d = 1 is CAPPED(c, λ) exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "rng/alias.hpp"

namespace iba::core {

class Capped;

/// Alias-table sampler over fixed bin weights.
class WeightedBinSampler : public BinChoiceSampler {
 public:
  /// One weight per bin of an n-bin process; weights must be
  /// non-negative with a positive sum.
  WeightedBinSampler(std::uint32_t n, const std::vector<double>& weights);

  void fill(Engine& engine, std::span<std::uint32_t> out) final {
    table_.fill(engine, out);
  }

  [[nodiscard]] const rng::AliasTable& table() const noexcept {
    return table_;
  }

 private:
  rng::AliasTable table_;
};

/// d uniform choices per ball, least start-of-round load wins (ties go
/// to the earliest draw). Reads the loads of `process`, which must
/// outlive the sampler; attach with process.set_bin_sampler(&sampler).
class GreedyChoiceSampler final : public BinChoiceSampler {
 public:
  GreedyChoiceSampler(const Capped& process, std::uint32_t d);

  void fill(Engine& engine, std::span<std::uint32_t> out) override;

 private:
  const Capped& process_;
  std::uint32_t d_;
};

}  // namespace iba::core
