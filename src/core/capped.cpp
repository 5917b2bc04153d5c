#include "core/capped.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "rng/bounded.hpp"
#include "telemetry/ball_trace.hpp"

namespace iba::core {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Capped::Capped(PoolSide side)
    : side_(std::move(side)),
      arena_(std::make_unique<Arena>()),
      bins_(config().n, config().capacity, arena_.get()) {
  choice_scratch_.set_arena(arena_.get());
  regions_.set_arena(arena_.get());
  if (config().shards > 1) {
    shard_pool_ = std::make_unique<concurrency::ThreadPool>(config().shards);
  }
}

Capped::Capped(const CappedConfig& config, Engine engine)
    : Capped(PoolSide(config, engine)) {}

Capped::Capped(const CappedSnapshot& snapshot) : Capped(PoolSide(snapshot)) {
  const queueing::BinQueues& queues = snapshot.bins;
  IBA_EXPECT(queues.loads.size() == config().n,
             "CappedSnapshot: bins.loads must hold one load per bin (n)");
  // A snapshot taken mid-shrink can hold queues longer than the
  // (already lowered) acceptance capacity: those bins are still
  // draining. Widen the storage to the longest queue so the restore
  // fits; without a controller such a snapshot is corrupt.
  const std::uint32_t longest =
      *std::max_element(queues.loads.begin(), queues.loads.end());
  if (longest > bins_.capacity()) {
    IBA_EXPECT(config().control.enabled(),
               "CappedSnapshot: bin queue exceeds capacity");
    IBA_EXPECT(longest <= config().control.c_max,
               "CappedSnapshot: bin queue exceeds control.c_max");
    bins_.grow_capacity(longest);
  }
  bins_.restore(queues);
}

CappedSnapshot Capped::snapshot() const {
  CappedSnapshot snap = side_.snapshot();
  snap.bins = bins_.queues();
  return snap;
}

void Capped::begin_round_faults() {
  if (fault_plan_ == nullptr) {
    faults_round_ = false;
    return;
  }
  // The plan runs after admission, before the round's first bin-choice
  // draw, and must only consume its own stream; the load view reflects
  // the state at the end of the previous round.
  fault_plan_->begin_round(
      round(), config().capacity,
      [this](std::uint32_t bin) { return load(bin); });
  faults_round_ = fault_plan_->active();
  fault_flags_ = faults_round_ ? fault_plan_->flags() : nullptr;
  round_caps_ = faults_round_ ? fault_plan_->effective_capacity() : nullptr;
}

void Capped::set_bin_capacities(std::span<const std::uint32_t> capacities) {
  if (capacities.empty()) {
    if (!bin_caps_.empty()) round_caps_ = nullptr;  // else a plan's caps
    bin_caps_.clear();
    return;
  }
  IBA_EXPECT(capacities.size() == config().n,
             "Capped: need exactly one capacity per bin");
  IBA_EXPECT(fault_plan_ == nullptr,
             "Capped: per-bin capacities are incompatible with a fault plan");
  IBA_EXPECT(controller() == nullptr,
             "Capped: per-bin capacities are incompatible with adaptive "
             "control");
  const auto [lo, hi] = std::minmax_element(capacities.begin(),
                                            capacities.end());
  IBA_EXPECT(*lo >= 1, "Capped: every per-bin capacity must be >= 1");
  IBA_EXPECT(*hi == config().capacity,
             "Capped: config.capacity must equal the largest per-bin "
             "capacity (the storage width)");
  bin_caps_.assign(capacities.begin(), capacities.end());
  round_caps_ = bin_caps_.data();
}

RoundMetrics Capped::step() {
  RoundMetrics m = side_.open_round();
  // A controller may have grown c; shrink leaves the storage as it is.
  if (config().capacity > bins_.capacity()) {
    bins_.grow_capacity(config().capacity);
  }
  begin_round_faults();
  run_round(m, std::nullopt);
  if (timeseries_ != nullptr) record_time_series(m);
  return m;
}

void Capped::record_time_series(const RoundMetrics& m) {
  telemetry::TimeSeriesSample s;
  s.round = m.round;
  s.pool_size = m.pool_size;
  s.total_load = m.total_load;
  s.max_load = m.max_load;
  s.generated = m.generated;
  s.deleted = m.deleted;
  s.shed = m.shed;
  s.deferred = m.deferred;
  s.requeued = m.requeued;
  s.faulted_bins = m.faulted_bins;
  s.capacity = config().capacity;
  s.wait_p50 = waits().quantile_upper_bound(0.50);
  s.wait_p95 = waits().quantile_upper_bound(0.95);
  s.wait_p99 = waits().quantile_upper_bound(0.99);
  if (const control::Controller* controller = side_.controller()) {
    // λ̂ as ×10⁶ fixed point: the EWMA is a pure function of the
    // byte-identical metrics stream, so the rounding is too.
    s.lambda_hat_micro = static_cast<std::uint64_t>(
        controller->estimator().lambda_ewma() * 1e6 + 0.5);
    s.control_changes = controller->changes_total();
  }
  timeseries_->observe(s);
}

void Capped::set_capacity(std::uint32_t capacity) {
  IBA_EXPECT(bin_caps_.empty(),
             "Capped: set_capacity is incompatible with per-bin capacities");
  side_.set_capacity(capacity);
  if (capacity > bins_.capacity()) {
    bins_.grow_capacity(capacity);
  }
}

RoundMetrics Capped::step_with_choices(
    std::span<const std::uint32_t> choices) {
  IBA_EXPECT(config().arrival == ArrivalModel::kDeterministic,
             "Capped: step_with_choices requires deterministic arrivals");
  IBA_EXPECT(fault_plan_ == nullptr &&
                 config().backpressure == BackpressureMode::kNone,
             "Capped: step_with_choices is incompatible with fault plans "
             "and backpressure");
  IBA_EXPECT(controller() == nullptr,
             "Capped: step_with_choices is incompatible with adaptive "
             "control (couplings assume a fixed capacity)");
  IBA_EXPECT(choices.size() == balls_to_throw(),
             "Capped: need exactly one bin choice per thrown ball");
  // Deterministic arrivals, no gate and no controller: the round opens
  // with exactly λn admitted balls and no engine draw.
  RoundMetrics m = side_.open_round();
  run_round(m, choices);
  return m;
}

std::span<const std::uint32_t> Capped::draw_choices() {
  const std::uint64_t nu = pool_size();
  telemetry::ScopedPhaseTimer timer(timers_, telemetry::Phase::kThrow, nu);
  choice_scratch_.resize(nu);
  if (bin_sampler_ != nullptr) {
    bin_sampler_->fill(side_.engine(), choice_scratch_);
  } else {
    rng::fill_bounded(side_.engine(), choice_scratch_, config().n);
  }
  return choice_scratch_;
}

void Capped::run_round(RoundMetrics& m,
                       std::optional<std::span<const std::uint32_t>> choices) {
  // Ball ids are the global generation sequence: this cohort occupies
  // the last m.generated ids. (With backpressure the tracer is rejected
  // at attach time, so admitted always equals generated here when
  // tracing.)
  if (tracer_ != nullptr) {
    tracer_->on_arrivals(m.round, generated_total() - m.generated,
                         m.generated);
  }
  if (faults_round_) m.faulted_bins = fault_plan_->faulted_bins();

  // Fast path: the fused sweep handles acceptance and deletion in one
  // chunked pass on every shard (and computes the end-of-round load
  // stats), timing itself so its kAccept/kDelete split matches the
  // scalar path's. A sampler's choices are drawn serially first; a
  // uniform round's are drawn by the sweep, split across the shards.
  // Every round it does not take — RoundKernel::kScalar, an attached
  // ball tracer, or a pool whose age spread makes the sweep's partition
  // uneconomical — draws serially and runs the scalar reference,
  // whatever the shard count. The bytes are the same either way.
  if (!choices && bin_sampler_ != nullptr) choices = draw_choices();
  const bool fused = config().kernel == RoundKernel::kBinMajor &&
                     tracer_ == nullptr && round_fused(choices, m);
  if (!fused) {
    if (!choices) choices = draw_choices();
    // Allocation. Pool buckets are considered in preference order (the
    // paper's oldest-first, or the ablation's inversion); each bin
    // accepts while it has room, which realizes "accept the preferred
    // min{c−ℓ, ν} requests" exactly (see the header comment).
    {
      telemetry::ScopedPhaseTimer accept_timer(timers_,
                                               telemetry::Phase::kAccept,
                                               m.thrown);
      accept_scalar(*choices, m);
    }

    // Deletion: every non-empty, non-failed bin serves one ball.
    telemetry::ScopedPhaseTimer delete_timer(timers_,
                                             telemetry::Phase::kDelete);
    delete_scalar(m);
    delete_timer.set_balls(m.deleted);
    delete_timer.stop();
  }
  // requeue_ is a std::map, so its (label, count) pairs come out sorted
  // and order-independent of which kernel (or shard) recorded them.
  requeue_scratch_.clear();
  for (const auto& [label, count] : requeue_) {
    requeue_scratch_.push_back({label, count});
  }
  requeue_.clear();
  side_.close_round(m, rejected_, requeue_scratch_);
  if (tracer_ != nullptr) tracer_->on_round_end(m.round);
}

// ---------------------------------------------------------------------------
// Scalar (ball-at-a-time) round path: the reference the fused sweep is
// differentially tested against, and the path of every round the sweep
// does not take.
// ---------------------------------------------------------------------------

void Capped::accept_scalar(std::span<const std::uint32_t> choices,
                           RoundMetrics& m) {
  // Buckets are visited in preference order (the paper's oldest-first,
  // or the ablation's inversion); rejections are counted per bucket, and
  // the pool side re-adds them oldest-first.
  const auto& buckets = pool().buckets();
  const std::size_t n_buckets = buckets.size();
  const bool forward = config().acceptance == AcceptanceOrder::kOldestFirst;
  const std::uint32_t cap = config().capacity;
  const std::uint32_t* const caps = round_caps_;
  rejected_.assign(n_buckets, 0);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const std::size_t b = forward ? i : n_buckets - 1 - i;
    const auto [label, count] = buckets[b];
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::uint32_t bin = choices[idx++];
      const std::uint64_t load = bins_.load(bin);
      const bool accepted = load < (caps != nullptr ? caps[bin] : cap);
      if (accepted) {
        bins_.push(bin, label);
        ++m.accepted;
      } else {
        ++rejected_[b];
      }
      if (tracer_ != nullptr) tracer_->on_throw(label, bin, load, accepted);
    }
  }
  IBA_ASSERT(idx == choices.size());
}

void Capped::delete_scalar(RoundMetrics& m) {
  const bool failures = config().failure_probability > 0.0;
  // A crashing bin's buffer returns to the pool with its labels (ages)
  // preserved.
  const auto requeue_all = [&](std::uint32_t bin) {
    while (bins_.load(bin) > 0) {
      const std::uint64_t crashed = bins_.pop_front(bin);
      if (tracer_ != nullptr) tracer_->on_requeue(bin, crashed);
      ++requeue_[crashed];
      ++m.requeued;
    }
  };
  // The same walk takes the end-of-round load statistics, counting the
  // bins it skips (empty, faulted, failing) too.
  std::uint32_t max_load = 0;
  std::uint32_t empty_bins = 0;
  for (std::uint32_t bin = 0; bin < n(); ++bin) {
    const std::uint32_t load = bins_.load(bin);
    if (load == 0) {
      ++empty_bins;
      continue;
    }
    // Injected faults are consulted before the stochastic failure coin:
    // a faulted bin draws no coin, in every kernel, so the engine's
    // draw sequence stays identical across kernels and shard counts.
    if (faults_round_ &&
        (fault_flags_[bin] & FaultFlags::kNoServe) != 0) {
      // Crash with state loss drains, like kCrashRequeue; down or
      // straggling bins keep their buffer. No service this round.
      if ((fault_flags_[bin] & FaultFlags::kDrain) != 0) {
        requeue_all(bin);
        ++empty_bins;
      } else {
        max_load = std::max(max_load, load);
      }
      continue;
    }
    if (failures &&
        rng::uniform01(side_.engine()) < config().failure_probability) {
      if (config().failure_mode == FailureMode::kCrashRequeue) {
        requeue_all(bin);
        ++empty_bins;
      } else {
        max_load = std::max(max_load, load);
      }
      continue;  // no service from this bin this round
    }
    // Service: the served ball's wait is its age.
    std::uint64_t label;
    std::uint32_t position = 0;  // queue index served
    switch (config().deletion) {
      case DeletionDiscipline::kLifo:
        position = load - 1;
        label = bins_.pop_back(bin);
        break;
      case DeletionDiscipline::kUniform:
        position = rng::bounded32(side_.engine(), load);
        label = bins_.pop_at(bin, position);
        break;
      case DeletionDiscipline::kFifo:
      default:
        label = bins_.pop_front(bin);
    }
    if (tracer_ != nullptr) tracer_->on_delete(bin, label, position);
    const std::uint64_t wait = round() - label;
    side_.waits().record(wait);
    ++m.deleted;
    ++m.wait_count;
    m.wait_sum += static_cast<double>(wait);
    if (wait > m.wait_max) m.wait_max = wait;
    empty_bins += static_cast<std::uint32_t>(load == 1);
    max_load = std::max(max_load, load - 1);
  }
  m.total_load = bins_.total_load();
  m.max_load = max_load;
  m.empty_bins = empty_bins;
}

// ---------------------------------------------------------------------------
// Fused round kernel.
// ---------------------------------------------------------------------------

// Fused round kernel for untraced rounds. A flat counting sort over
// n = 10^6 bins random-accesses multi-megabyte cursor arrays and loses
// to the scalar loop on cache misses, so the kernel works in two
// cache-resident levels instead, and splits both over the shard pool:
//
//   Pass A writes the throws into the range kernel's chunk streams
//   (core/range_kernel.hpp). Shard s takes the s-th contiguous slice of
//   the throws (pool buckets are contiguous index ranges in visit order)
//   and writes that slice's stream in every chunk. A uniform round is
//   drawn here: shard s jumps a copy of the engine to its slice's first
//   throw and appends each choice straight into its streams. Given
//   choices (a sampler's, or step_with_choices'), and a uniform round
//   whose split draw a rejection shifted, drawn serially, are counted
//   per chunk and scattered into exact regions.
//
//   Pass B is the range kernel, the one copy of the accept/serve rule,
//   which dist::Worker also runs: shard t sweeps a contiguous run of
//   whole chunks into its private SweepShard, and the shards merge in
//   order.
//
// Outcome, RNG consumption and metrics are byte-identical to the scalar
// path for every shard count; only the memory access order differs.
bool Capped::round_fused(std::optional<std::span<const std::uint32_t>> given,
                         RoundMetrics& m) {
  const CappedConfig& config = this->config();
  const std::uint32_t n = config.n;
  const std::uint64_t nu = pool_size();
  IBA_ASSERT(!given || given->size() == nu);
  // Pool buckets in acceptance-visit order; bucket_ends_[b] is one past
  // the last throw index of bucket b, so a binary search maps a throw
  // index to its bucket.
  const bool forward = config.acceptance == AcceptanceOrder::kOldestFirst;
  const auto& buckets = pool().buckets();
  const std::size_t n_buckets = buckets.size();
  visit_buckets_.clear();
  bucket_ends_.clear();
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    visit_buckets_.push_back(buckets[forward ? i : n_buckets - 1 - i]);
    cum += visit_buckets_.back().count;
    bucket_ends_.push_back(cum);
  }
  IBA_ASSERT(cum == nu);
  const std::uint32_t n_chunks = chunk_count(n);

  // One sentinel per (bucket, chunk): bail to the scalar path if the pool's
  // age spread would make that overhead comparable to the throws
  // themselves (does not happen in steady state).
  if (n_buckets * static_cast<std::size_t>(n_chunks) > nu / 2 + 1024) {
    return false;
  }

  // The sweep interleaves acceptance and deletion per chunk, so phase
  // attribution is done here (no clock reads without a sink): a split
  // draw is kThrow; each shard times its delete walks and its whole
  // Pass B, and the rest of the kernel's wall time is split between
  // kAccept and kDelete in that ratio.
  const bool timing = timers_ != nullptr;
  std::chrono::steady_clock::time_point t_sweep;
  if (timing) t_sweep = std::chrono::steady_clock::now();

  // Slice s is the s-th of `shards` near-equal runs of the throws, with
  // the buckets holding its first and last throw (bucket_ends_ is
  // strictly increasing: pool buckets are never empty).
  const std::size_t shards = config.shards;
  throw_slices_.assign(shards, ThrowSlice{});
  for (std::size_t s = 0; s < shards; ++s) {
    ThrowSlice& slice = throw_slices_[s];
    slice.lo = nu / shards * s + std::min<std::uint64_t>(s, nu % shards);
    slice.hi = slice.lo + nu / shards + (s < nu % shards ? 1 : 0);
    if (slice.lo == slice.hi) continue;
    const auto bucket_of = [this](std::uint64_t idx) {
      return static_cast<std::size_t>(
          std::upper_bound(bucket_ends_.begin(), bucket_ends_.end(), idx) -
          bucket_ends_.begin());
    };
    slice.bucket_lo = bucket_of(slice.lo);
    slice.bucket_hi = bucket_of(slice.hi - 1) + 1;
  }
  regions_.shape(shards, n);
  if (given) {
    partition(*given);
  } else if (draw_split()) {
    if (timing) {
      timers_->add(telemetry::Phase::kThrow, elapsed_ns(t_sweep), nu);
      t_sweep = std::chrono::steady_clock::now();
    }
  } else {
    // A rejection shifted a slice's draw, and the engine is untouched:
    // draw serially (timed as kThrow) and partition, as a sampler round
    // does.
    partition(draw_choices());
    if (timing) t_sweep = std::chrono::steady_clock::now();
  }

  // Pass B: the range kernel over each shard's run of chunks. Delete
  // walks that draw from the engine (failure coins, uniform deletion)
  // stay in bin order: inline when one shard walks every chunk in turn,
  // else serially after the parallel sweep.
  const RangeRound range{
      .bins = &bins_, .round = round(), .part = regions_.data(),
      .stream_begin = regions_.begins(), .stream_end = regions_.cursors(),
      .row = regions_.row(), .slices = throw_slices_,
      .buckets = visit_buckets_, .capacity = config.capacity,
      .caps = round_caps_,
      .fault_flags = faults_round_ ? fault_flags_ : nullptr,
      .failure_probability = config.failure_probability,
      .failure_mode = config.failure_mode, .deletion = config.deletion,
      .engine = &side_.engine(), .timing = timing};
  sweep_.resize(shards);
  for (SweepShard& acc : sweep_) acc.reset(n_buckets);
  const bool draws = config.failure_probability > 0.0 ||
                     config.deletion == DeletionDiscipline::kUniform;
  const bool inline_delete = !draws || shards == 1;
  std::chrono::steady_clock::time_point t_pass_b;
  if (timing) t_pass_b = std::chrono::steady_clock::now();
  for_shards(n_chunks, [&](std::size_t t, std::size_t lo, std::size_t hi) {
    sweep_chunks(range, sweep_[t], static_cast<std::uint32_t>(lo),
                 static_cast<std::uint32_t>(hi), inline_delete);
  });
  std::uint64_t delete_ns = 0;
  if (timing) {
    // Pass B wall time, split in the shards' delete/busy ratio.
    std::uint64_t busy = 0;
    for (const SweepShard& acc : sweep_) {
      busy += acc.busy_ns;
      delete_ns += acc.delete_ns;
    }
    const auto wall = static_cast<double>(elapsed_ns(t_pass_b));
    delete_ns = busy == 0 ? 0
                          : static_cast<std::uint64_t>(
                                wall * static_cast<double>(delete_ns) /
                                static_cast<double>(busy));
  }
  if (!inline_delete) {
    std::chrono::steady_clock::time_point t_del;
    if (timing) t_del = std::chrono::steady_clock::now();
    delete_bins(range, sweep_[0], 0, n);
    if (timing) delete_ns += elapsed_ns(t_del);
  }

  // Merge the shards in order.
  std::uint64_t accepted = 0;
  std::uint64_t requeued = 0;
  std::uint64_t wait_sum = 0;
  std::uint64_t max_load = 0;
  std::uint64_t empty_bins = 0;
  for (const SweepShard& acc : sweep_) {
    accepted += acc.accepted;
    m.deleted += acc.waits.count();
    wait_sum += acc.waits.moments().sum();
    m.wait_max = std::max(m.wait_max, acc.waits.max());
    max_load = std::max(max_load, acc.max_load);
    empty_bins += acc.empty_bins;
    side_.waits().merge(acc.waits);
    for (const std::uint64_t label : acc.requeued) ++requeue_[label];
    requeued += acc.requeued.size();
  }
  m.accepted = accepted;
  m.wait_count = m.deleted;
  // Per-round wait sums are far below 2^53, so the double equals the
  // scalar path's per-ball accumulation exactly.
  m.wait_sum = static_cast<double>(wait_sum);
  m.requeued = requeued;
  bins_.adjust_total_load(static_cast<std::int64_t>(accepted) -
                          static_cast<std::int64_t>(m.deleted) -
                          static_cast<std::int64_t>(requeued));
  m.total_load = bins_.total_load();
  m.max_load = max_load;
  m.empty_bins = empty_bins;

  // Rejections per pool bucket, oldest first, for the pool side.
  rejected_.assign(n_buckets, 0);
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const std::size_t b = forward ? i : n_buckets - 1 - i;
    for (const SweepShard& acc : sweep_) rejected_[i] += acc.rejected[b];
  }

  if (timing) {
    const std::uint64_t total_ns = elapsed_ns(t_sweep);
    const std::uint64_t accept_ns =
        total_ns > delete_ns ? total_ns - delete_ns : 0;
    timers_->add(telemetry::Phase::kAccept, accept_ns, m.thrown);
    timers_->add(telemetry::Phase::kDelete, delete_ns, m.deleted);
  }
  return true;
}

void Capped::partition(std::span<const std::uint32_t> choices) {
  // Per-(slice, chunk) counts, exact regions (counts plus one sentinel
  // per bucket the slice meets), then the bucket-major scatter.
  const std::size_t row = regions_.row();
  std::uint64_t* const cursors = regions_.cursors();
  std::fill(cursors, cursors + regions_.slices() * row, 0);
  for_slices([&](std::size_t s) {
    std::uint64_t* const counts = cursors + s * row;
    const ThrowSlice& slice = throw_slices_[s];
    for (std::uint64_t i = slice.lo; i < slice.hi; ++i) {
      ++counts[choices[i] >> kChunkBits];
    }
  });
  regions_.lay_out([&](std::size_t s, std::uint32_t c) {
    const ThrowSlice& slice = throw_slices_[s];
    return cursors[s * row + c] + (slice.bucket_hi - slice.bucket_lo);
  });
  regions_.rewind();
  for_slices([&](std::size_t s) {
    const StreamAppender append(regions_, s);
    const ThrowSlice& slice = throw_slices_[s];
    std::uint64_t idx = slice.lo;
    for (std::size_t b = slice.bucket_lo; b < slice.bucket_hi; ++b) {
      const std::uint64_t b_end = std::min(bucket_ends_[b], slice.hi);
      for (; idx < b_end; ++idx) {
        const std::uint32_t bin = choices[idx];
        append(bin >> kChunkBits,
               static_cast<std::uint16_t>(bin & (kChunkWidth - 1)));
      }
      append.close_bucket();
    }
    IBA_ASSERT(idx == slice.hi);
  });
}

bool Capped::draw_split() {
  // Throw i is drawn from the engine state i words past the round's
  // start, since fill_bounded takes one word per choice, except that a
  // Lemire rejection (probability below n / 2^64 per draw) takes one
  // more. So slice s draws from a copy jumped throw_slices_[s].lo words
  // ahead, and the draw is exact iff every slice ends where the next
  // begins. If not, nothing has changed but scratch, and the caller
  // draws the round serially instead. Streams that overflowed their
  // regions are drawn again into widened regions: the same words, the
  // same choices.
  regions_.widen_uniform(throw_slices_, n());
  split_states_.resize(throw_slices_.size());
  do {
    regions_.rewind();
    for_slices([&](std::size_t s) {
      Engine engine = side_.engine();
      engine.discard(throw_slices_[s].lo);
      split_states_[s].first = engine.state();
      draw_slice(regions_, s, throw_slices_[s], bucket_ends_, engine,
                 nullptr, n(), 0);
      split_states_[s].last = engine.state();
    });
    for (std::size_t s = 1; s < split_states_.size(); ++s) {
      if (split_states_[s - 1].last != split_states_[s].first) return false;
    }
  } while (!regions_.fit());
  side_.engine() = Engine(split_states_.back().last);
  return true;
}

void Capped::for_slices(const std::function<void(std::size_t)>& fn) {
  for_shards(config().shards,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               for (std::size_t s = lo; s < hi; ++s) fn(s);
             });
}

void Capped::for_shards(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (config().shards == 1) {
    fn(0, 0, count);
    return;
  }
  concurrency::parallel_for_ranges(*shard_pool_, count, config().shards, fn);
}

}  // namespace iba::core
