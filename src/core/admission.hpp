// Arrival sampling and backpressure admission — the start of every
// CAPPED round. core::PoolSide (core/pool_side.hpp) is their one user,
// and both owners of a pool, core::Capped and dist::Coordinator, hold a
// PoolSide, so both admit balls by one rule and consume the engine
// identically.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "queueing/aged_pool.hpp"

namespace iba::core {

struct CappedConfig;

/// One bucket of deferred arrivals (kDeferRetry backpressure): `count`
/// balls generated in round `label`, eligible to retry at round `ready`.
struct DeferredBucket {
  std::uint64_t label = 0;
  std::uint64_t count = 0;
  std::uint64_t ready = 0;
};

/// Outcome of one round's arrival admission.
struct Admission {
  std::uint64_t generated = 0;  ///< balls created this round
  std::uint64_t admitted = 0;   ///< of those, admitted to the pool
  std::uint64_t shed = 0;       ///< of those, dropped (kShed)
};

/// The round's arrival count per config.arrival: exactly λn, or a
/// Binomial(n, λ) / Poisson(λn) draw from `engine` (footnote 2).
[[nodiscard]] std::uint64_t sample_arrivals(const CappedConfig& config,
                                            Engine& engine);

/// The backpressure state of a pool owner: deferred arrivals waiting
/// out their backoff, and the lifetime shed / deferred counts.
class AdmissionGate {
 public:
  /// Applies config.pool_limit to round `next_round`'s `generated`
  /// arrivals: readmits deferred balls whose backoff expired (oldest
  /// first) into `pool`, then admits as many fresh arrivals as fit; the
  /// excess is shed or deferred. No engine draws. Without backpressure
  /// admits everything and touches nothing.
  Admission admit(const CappedConfig& config, std::uint64_t next_round,
                  std::uint64_t generated, queueing::AgedPool& pool);

  /// Restores the state a snapshot recorded; `deferred` must be in
  /// retry (ready-ascending) order.
  void restore(std::uint64_t shed_total,
               std::span<const DeferredBucket> deferred);

  [[nodiscard]] const std::deque<DeferredBucket>& deferred() const noexcept {
    return deferred_;
  }
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_total_;
  }
  [[nodiscard]] std::uint64_t deferred_total() const noexcept {
    return deferred_total_;
  }

 private:
  std::deque<DeferredBucket> deferred_;  // ready ascending; labels
                                         // ascending within a ready group
  std::vector<queueing::AgedPool::Bucket> readmit_scratch_;
  std::uint64_t shed_total_ = 0;
  std::uint64_t deferred_total_ = 0;
};

}  // namespace iba::core
