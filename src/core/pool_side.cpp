#include "core/pool_side.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace iba::core {

CappedConfig CappedConfig::from_rate(std::uint32_t n, double lambda,
                                     std::uint32_t capacity) {
  IBA_EXPECT(n > 0, "CappedConfig: n must be positive");
  IBA_EXPECT(lambda >= 0.0 && lambda <= 1.0,
             "CappedConfig: lambda must lie in [0, 1]");
  const double exact = lambda * static_cast<double>(n);
  const double rounded = std::round(exact);
  IBA_EXPECT(std::abs(exact - rounded) < 1e-6,
             "CappedConfig: lambda * n must be integral");
  CappedConfig config;
  config.n = n;
  config.capacity = capacity;
  config.lambda_n = static_cast<std::uint64_t>(rounded);
  config.validate();
  return config;
}

void CappedConfig::validate() const {
  IBA_EXPECT(n > 0, "CappedConfig: n must be positive");
  IBA_EXPECT(capacity >= 1 && capacity <= kMaxCapacity,
             "CappedConfig: capacity must lie in [1, 65535]");
  IBA_EXPECT(lambda_n <= n,
             "CappedConfig: lambda_n must not exceed n (lambda <= 1)");
  IBA_EXPECT(failure_probability >= 0.0 && failure_probability < 1.0,
             "CappedConfig: failure_probability must lie in [0, 1)");
  IBA_EXPECT(shards >= 1, "CappedConfig: shards must be at least 1");
  IBA_EXPECT(shards == 1 || kernel == RoundKernel::kBinMajor,
             "CappedConfig: sharding requires the bin-major kernel");
  IBA_EXPECT(backpressure == BackpressureMode::kNone || pool_limit > 0,
             "CappedConfig: backpressure requires a positive pool_limit");
  IBA_EXPECT(backpressure != BackpressureMode::kDeferRetry ||
                 backoff_rounds >= 1,
             "CappedConfig: defer-retry backoff must be at least 1 round");
  if (control.enabled()) {
    control.validate();
    IBA_EXPECT(capacity <= control.c_max,
               "CappedConfig: capacity must not exceed control.c_max");
    IBA_EXPECT(control.admission_target == 0 ||
                   backpressure != BackpressureMode::kNone,
               "CappedConfig: admission control requires a backpressure mode");
  }
}

PoolSide::PoolSide(const CappedConfig& config, Engine engine)
    : config_(config), engine_(engine) {
  config_.validate();
  if (config_.control.enabled()) {
    controller_ = std::make_unique<control::Controller>(
        config_.control, config_.n, config_.pool_limit);
  }
}

PoolSide::PoolSide(const CappedSnapshot& snapshot)
    : PoolSide(snapshot.config, Engine(snapshot.engine_state)) {
  round_ = snapshot.round;
  generated_total_ = snapshot.generated_total;
  deleted_total_ = snapshot.deleted_total;
  for (const auto& bucket : snapshot.pool) {
    pool_.add(bucket.label, bucket.count);
  }
  gate_.restore(snapshot.shed_total, snapshot.deferred);
  waits_ = wait_recorder(snapshot.waits);
  if (controller_ != nullptr) controller_->restore(snapshot.controller);
}

RoundMetrics PoolSide::open_round() {
  if (controller_ != nullptr) {
    const auto decision =
        controller_->decide(round_ + 1, config_.capacity, config_.pool_limit);
    if (decision && decision->capacity != config_.capacity) {
      set_capacity(decision->capacity);
    }
    if (decision && decision->pool_limit != 0 &&
        decision->pool_limit != config_.pool_limit) {
      set_pool_limit(decision->pool_limit);
    }
  }
  const std::uint64_t generated = sample_arrivals(config_, engine_);
  const Admission admission =
      gate_.admit(config_, round_ + 1, generated, pool_);
  ++round_;
  pool_.add(round_, admission.admitted);
  generated_total_ += admission.generated;
  RoundMetrics m;
  m.round = round_;
  m.generated = admission.generated;
  m.shed = admission.shed;
  m.thrown = pool_.total();
  return m;
}

void PoolSide::close_round(
    RoundMetrics& m, std::span<const std::uint64_t> rejected,
    std::span<const queueing::AgedPool::Bucket> requeued) {
  // Survivors re-added oldest-first (AgedPool's label-order invariant).
  const auto& buckets = pool_.buckets();
  IBA_ASSERT(rejected.size() == buckets.size());
  survivors_.clear();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    survivors_.add(buckets[b].label, rejected[b]);
  }
  pool_.swap(survivors_);
  if (!requeued.empty()) pool_.merge_sorted(requeued);
  deleted_total_ += m.deleted;
  m.pool_size = pool_.total();
  m.deferred = gate_.deferred_total();
  m.oldest_pool_age = pool_.oldest_age(round_);
  if (controller_ != nullptr) controller_->observe(m);
}

CappedSnapshot PoolSide::snapshot() const {
  CappedSnapshot snap;
  snap.config = config_;
  snap.round = round_;
  snap.generated_total = generated_total_;
  snap.deleted_total = deleted_total_;
  snap.shed_total = gate_.shed_total();
  snap.engine_state = engine_.state();
  snap.pool.assign(pool_.buckets().begin(), pool_.buckets().end());
  snap.deferred.assign(gate_.deferred().begin(), gate_.deferred().end());
  snap.waits = wait_state(waits_);
  if (controller_ != nullptr) snap.controller = controller_->state();
  return snap;
}

void PoolSide::set_lambda_n(std::uint64_t lambda_n) {
  IBA_EXPECT(lambda_n <= config_.n,
             "PoolSide: lambda_n must not exceed n (lambda <= 1)");
  config_.lambda_n = lambda_n;
}

void PoolSide::set_capacity(std::uint32_t capacity) {
  IBA_EXPECT(capacity >= 1 && capacity <= CappedConfig::kMaxCapacity,
             "PoolSide: capacity must lie in [1, 65535]");
  config_.capacity = capacity;  // a shrink drains: bins keep their balls
}

void PoolSide::set_pool_limit(std::uint64_t pool_limit) {
  IBA_EXPECT(config_.backpressure != BackpressureMode::kNone,
             "PoolSide: set_pool_limit requires a backpressure mode");
  IBA_EXPECT(pool_limit > 0, "PoolSide: pool_limit must be positive");
  config_.pool_limit = pool_limit;
}

}  // namespace iba::core
