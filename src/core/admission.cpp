#include "core/admission.hpp"

#include "common/assert.hpp"
#include "core/pool_side.hpp"
#include "rng/distributions.hpp"

namespace iba::core {

std::uint64_t sample_arrivals(const CappedConfig& config, Engine& engine) {
  switch (config.arrival) {
    case ArrivalModel::kDeterministic:
      return config.lambda_n;
    case ArrivalModel::kBinomial:
      // n generators, each producing one ball w.p. λ (footnote 2).
      return rng::binomial(engine, config.n, config.lambda());
    case ArrivalModel::kPoisson:
      return rng::poisson(engine, static_cast<double>(config.lambda_n));
  }
  return config.lambda_n;
}

Admission AdmissionGate::admit(const CappedConfig& config,
                               std::uint64_t next_round,
                               std::uint64_t generated,
                               queueing::AgedPool& pool) {
  Admission adm;
  adm.generated = generated;
  adm.admitted = generated;
  if (config.backpressure == BackpressureMode::kNone) return adm;

  const std::uint64_t limit = config.pool_limit;
  // The bound applies at admission only: survivors and requeued balls
  // already in flight are never dropped, so the pool can exceed the
  // limit transiently (e.g. after a mass crash); admission then stalls
  // until it drains back below.
  std::uint64_t free = pool.total() < limit ? limit - pool.total() : 0;

  // Retry pass: deferred balls whose backoff expired re-attempt
  // admission oldest-first, ahead of this round's fresh arrivals. The
  // eligible entries form one front group of the deque (every round
  // processes its group, and re-deferred remainders get a strictly
  // later ready round), so their labels are ascending and the merge
  // below preserves the pool's oldest-first order.
  if (!deferred_.empty() && deferred_.front().ready <= next_round) {
    readmit_scratch_.clear();
    while (!deferred_.empty() && deferred_.front().ready <= next_round) {
      DeferredBucket bucket = deferred_.front();
      deferred_.pop_front();
      const std::uint64_t take = bucket.count < free ? bucket.count : free;
      if (take > 0) {
        readmit_scratch_.push_back({bucket.label, take});
        free -= take;
        deferred_total_ -= take;
        bucket.count -= take;
      }
      if (bucket.count > 0) {
        bucket.ready = next_round + config.backoff_rounds;
        deferred_.push_back(bucket);
      }
    }
    if (!readmit_scratch_.empty()) pool.merge_sorted(readmit_scratch_);
  }

  // Fresh arrivals take whatever room remains.
  adm.admitted = generated < free ? generated : free;
  const std::uint64_t excess = generated - adm.admitted;
  if (excess > 0) {
    if (config.backpressure == BackpressureMode::kShed) {
      adm.shed = excess;
      shed_total_ += excess;
    } else {
      deferred_.push_back(
          {next_round, excess, next_round + config.backoff_rounds});
      deferred_total_ += excess;
    }
  }
  return adm;
}

void AdmissionGate::restore(std::uint64_t shed_total,
                            std::span<const DeferredBucket> deferred) {
  shed_total_ = shed_total;
  deferred_.clear();
  deferred_total_ = 0;
  for (const DeferredBucket& bucket : deferred) {
    IBA_EXPECT(deferred_.empty() || deferred_.back().ready <= bucket.ready,
               "snapshot: deferred buckets must be ready-ordered");
    deferred_.push_back(bucket);
    deferred_total_ += bucket.count;
  }
}

}  // namespace iba::core
