#include "core/modcapped.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "rng/bounded.hpp"

namespace iba::core {

std::uint64_t ModCappedConfig::m_star_default() const {
  const double dn = static_cast<double>(n);
  const double log_term = std::log(1.0 / (1.0 - lambda()));
  const double c = static_cast<double>(capacity);
  // Section III (c = 1): m* = ln(1/(1−λ))·n + 2n;
  // Section IV (general): m* = (2/c)·ln(1/(1−λ))·n + 6·c·n.
  const double value = capacity == 1 ? log_term * dn + 2 * dn
                                     : 2.0 / c * log_term * dn + 6 * c * dn;
  return static_cast<std::uint64_t>(std::ceil(value));
}

void ModCappedConfig::validate() const {
  IBA_EXPECT(n > 0, "ModCappedConfig: n must be positive");
  IBA_EXPECT(capacity > 0, "ModCappedConfig: capacity must be positive");
  IBA_EXPECT(lambda_n < n,
             "ModCappedConfig: requires lambda <= 1 - 1/n (lambda_n < n)");
}

ModCapped::ModCapped(const ModCappedConfig& config, Engine engine)
    : config_(config),
      m_star_(config.m_star != 0 ? config.m_star : config.m_star_default()),
      engine_(engine),
      drain_(config.n, config.capacity),
      fill_(config.n, config.capacity) {
  config_.validate();
}

std::uint32_t ModCapped::drain_capacity() const noexcept {
  // c_j(t) for j = ⌊t/c⌋, t ∈ I_j: (j+1)·c − t  (Eq. (5)).
  const std::uint64_t c = config_.capacity;
  const std::uint64_t j = round_ / c;
  return static_cast<std::uint32_t>((j + 1) * c - round_);
}

std::uint32_t ModCapped::fill_capacity() const noexcept {
  // c_{j+1}(t) for t ∈ I_j = I_{(j+1)−1}: t − j·c  (Eq. (5)).
  const std::uint64_t c = config_.capacity;
  const std::uint64_t j = round_ / c;
  return static_cast<std::uint32_t>(round_ - j * c);
}

RoundMetrics ModCapped::step() {
  const std::uint64_t nu = balls_to_throw();
  choice_scratch_.resize(nu);
  for (auto& choice : choice_scratch_) {
    choice = rng::bounded32(engine_, config_.n);
  }
  return step_with_choices(choice_scratch_);
}

RoundMetrics ModCapped::step_with_choices(
    std::span<const std::uint32_t> choices) {
  IBA_EXPECT(choices.size() == balls_to_throw(),
             "ModCapped: need exactly one bin choice per thrown ball");
  const std::uint64_t generated = balls_to_throw() - pool_.total();
  ++round_;

  // Phase boundary: at t ≡ 0 (mod c) buffer ⌊t/c⌋ − 1 just finished its
  // drain phase (empty by construction); the former filling buffer starts
  // draining and a fresh filling buffer opens.
  if (round_ % config_.capacity == 0) {
    IBA_ASSERT(drain_.total_load() == 0);
    std::swap(drain_, fill_);
    fill_.clear();
  }

  pool_.add(round_, generated);
  generated_total_ += generated;

  RoundMetrics m;
  m.round = round_;
  m.generated = generated;
  m.thrown = pool_.total();

  const std::uint32_t cap_drain = drain_capacity();
  const std::uint32_t cap_fill = fill_capacity();

  // Pass 1: every ball tries its preferred buffer. Preferences alternate
  // by throw index, giving each active buffer ⌈ν/2⌉ / ⌊ν/2⌋ of the balls.
  survivors_.clear();
  overflow_scratch_.clear();
  std::size_t idx = 0;
  for (const auto& bucket : pool_.buckets()) {
    for (std::uint64_t k = 0; k < bucket.count; ++k) {
      const std::uint32_t bin = choices[idx];
      const bool prefers_drain = (idx % 2) == 0;
      ++idx;
      queueing::BinTable& preferred = prefers_drain ? drain_ : fill_;
      const std::uint32_t cap = prefers_drain ? cap_drain : cap_fill;
      if (preferred.load(bin) < cap) {
        preferred.push(bin, bucket.label);
        ++m.accepted;
      } else {
        overflow_scratch_.push_back({bin, bucket.label});
      }
    }
  }
  IBA_ASSERT(idx == choices.size());

  // Pass 2: overflowing balls take any remaining room (necessarily in
  // the non-preferred buffer — loads only grow during allocation), which
  // maximizes satisfied preferences without sacrificing acceptances.
  for (const Overflow& ball : overflow_scratch_) {
    if (drain_.load(ball.bin) < cap_drain) {
      drain_.push(ball.bin, ball.label);
      ++m.accepted;
    } else if (fill_.load(ball.bin) < cap_fill) {
      fill_.push(ball.bin, ball.label);
      ++m.accepted;
    } else {
      survivors_.add(ball.label, 1);  // overflow order is oldest-first
    }
  }
  pool_.swap(survivors_);

  // Deletion: only the draining buffer serves, one ball per bin.
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    if (drain_.load(bin) == 0) continue;
    const std::uint64_t label = drain_.pop_front(bin);
    const std::uint64_t wait = round_ - label;
    waits_.record(wait);
    ++m.deleted;
    ++m.wait_count;
    m.wait_sum += static_cast<double>(wait);
    if (wait > m.wait_max) m.wait_max = wait;
  }
  deleted_total_ += m.deleted;

  m.pool_size = pool_.total();
  m.total_load = total_load();
  std::uint64_t max_load = 0;
  std::uint32_t empty = 0;
  for (std::uint32_t bin = 0; bin < config_.n; ++bin) {
    const std::uint64_t l = load(bin);
    max_load = std::max(max_load, l);
    if (l == 0) ++empty;
  }
  m.max_load = max_load;
  m.empty_bins = empty;
  return m;
}

}  // namespace iba::core
