#include "telemetry/ball_trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/assert.hpp"
#include "io/json.hpp"
#include "rng/splitmix64.hpp"

namespace iba::telemetry {

void write_span_json(const BallSpan& span, std::ostream& out) {
  io::JsonWriter json(out);
  json.begin_object();
  json.key("ball_id").value(span.ball_id);
  json.key("arrival").value(span.arrival_round);
  json.key("accept").value(span.accept_round);
  json.key("service").value(span.service_round);
  json.key("wait").value(span.wait());
  json.key("pool").value(span.pool_rounds);
  json.key("binq").value(span.bin_rounds);
  json.key("bin").value(static_cast<std::uint64_t>(span.accept_bin));
  json.key("depth").value(static_cast<std::uint64_t>(span.queue_depth));
  json.key("throws").value(static_cast<std::uint64_t>(span.throws));
  json.key("failed").value(static_cast<std::uint64_t>(span.failed_throws));
  json.key("requeues").value(static_cast<std::uint64_t>(span.requeues));
  json.key("attempts").begin_array();
  for (std::uint32_t i = 0; i < span.recorded_failed; ++i) {
    json.begin_object()
        .key("round")
        .value(span.failed[i].round)
        .key("bin")
        .value(static_cast<std::uint64_t>(span.failed[i].bin))
        .key("load")
        .value(static_cast<std::uint64_t>(span.failed[i].load))
        .end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

std::uint64_t BallTracer::rng_hash(std::uint64_t x) noexcept {
  return rng::splitmix64_hash(x);
}

BallTracer::BallTracer(const BallTraceConfig& config)
    : config_(config),
      seed_mix_(rng::splitmix64_hash(config.seed)),
      threshold_(0),
      sample_all_(config.sample_rate >= 1.0),
      enabled_(config.sample_rate > 0.0) {
  IBA_EXPECT(config.sample_rate >= 0.0,
             "BallTraceConfig: sample_rate must be non-negative");
  IBA_EXPECT(config.completed_capacity > 0,
             "BallTraceConfig: completed_capacity must be positive");
  if (!sample_all_ && enabled_) {
    // rate * 2^64, computed without overflowing: rate < 1 here.
    threshold_ = static_cast<std::uint64_t>(
        config.sample_rate * 18446744073709551616.0);
    enabled_ = threshold_ != 0;
  }
}

void BallTracer::on_arrivals(std::uint64_t round, std::uint64_t first_ball_id,
                             std::uint64_t count) {
  round_ = round;
  if (!enabled_) return;
  std::vector<PoolEntry>* bucket = nullptr;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t ball_id = first_ball_id + k;
    if (!is_sampled(ball_id)) continue;
    ++sampled_arrivals_;
    if (active_count() >= config_.max_active) {
      ++skipped_samples_;
      continue;
    }
    const std::uint32_t slot = alloc_slot();
    ActiveSpan& active = slots_[slot];
    active = ActiveSpan{};
    active.span.ball_id = ball_id;
    active.span.arrival_round = round;
    active.stint_start = round;
    active.last_accept = round;
    if (bucket == nullptr) bucket = &pool_shadow_[round];
    bucket->push_back({k, slot});  // k ascending keeps the bucket sorted
  }
}

void BallTracer::switch_label(std::uint64_t label) {
  flush_cursor();
  cursor_active_ = true;
  cur_label_ = label;
  cur_thrown_ = 0;
  cur_rejected_ = 0;
  const auto it = pool_shadow_.find(label);
  cur_entries_ = it == pool_shadow_.end() ? nullptr : &it->second;
  cur_entry_idx_ = 0;
}

void BallTracer::flush_cursor() {
  if (cursor_active_ && cur_rejected_ > 0) {
    rejected_total_[cur_label_] = cur_rejected_;
  }
  cursor_active_ = false;
  cur_entries_ = nullptr;
}

std::uint32_t BallTracer::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::vector<BallTracer::BinEntry>& BallTracer::bin_entries(std::uint32_t bin) {
  if (bin >= bin_shadow_.size()) bin_shadow_.resize(bin + std::size_t{1});
  return bin_shadow_[bin];
}

void BallTracer::on_throw(std::uint64_t label, std::uint32_t bin,
                          std::uint64_t load, bool accepted) {
  if (!enabled_) return;
  if (!cursor_active_ || label != cur_label_) switch_label(label);
  const std::uint64_t position = cur_thrown_++;
  const std::uint64_t reject_position = cur_rejected_;
  if (!accepted) ++cur_rejected_;
  if (cur_entries_ == nullptr || cur_entry_idx_ >= cur_entries_->size() ||
      (*cur_entries_)[cur_entry_idx_].position != position) {
    return;  // not a sampled ball
  }
  const std::uint32_t slot = (*cur_entries_)[cur_entry_idx_].slot;
  ++cur_entry_idx_;
  ActiveSpan& active = slots_[slot];
  ++active.span.throws;
  if (accepted) {
    active.span.pool_rounds += round_ - active.stint_start;
    active.span.accept_round = round_;
    active.span.accept_bin = bin;
    active.span.queue_depth = static_cast<std::uint32_t>(load);
    active.last_accept = round_;
    // The ball lands at the back of the queue; load only grows during
    // the throw phase, so push_back keeps the vector depth-sorted.
    bin_entries(bin).push_back({load, slot});
  } else {
    ++active.span.failed_throws;
    if (active.span.recorded_failed < kSpanAttemptCap) {
      active.span.failed[active.span.recorded_failed++] = {
          round_, bin, static_cast<std::uint32_t>(load)};
    }
    next_pool_[label].push_back({reject_position, slot});
  }
}

void BallTracer::complete_span(std::uint32_t slot,
                               [[maybe_unused]] std::uint64_t label) {
  ActiveSpan& active = slots_[slot];
  BallSpan& span = active.span;
  IBA_ASSERT(span.arrival_round == label);
  span.service_round = round_;
  span.bin_rounds += round_ - active.last_accept;
  IBA_ASSERT(span.pool_rounds + span.bin_rounds == span.wait());
  IBA_ASSERT(span.throws == span.failed_throws + span.requeues + 1);
  pool_wait_.observe(span.pool_rounds);
  bin_wait_.observe(span.bin_rounds);
  if (completed_.size() >= config_.completed_capacity) {
    completed_.pop_front();
    ++dropped_;
  }
  completed_.push_back(span);
  ++completed_total_;
  if (live_ring_ != nullptr) live_ring_->try_push(span);
  free_slots_.push_back(slot);
}

void BallTracer::on_delete(std::uint32_t bin, std::uint64_t label,
                           std::uint64_t position) {
  if (!enabled_ || bin >= bin_shadow_.size()) return;
  auto& entries = bin_shadow_[bin];
  auto it = std::lower_bound(
      entries.begin(), entries.end(), position,
      [](const BinEntry& e, std::uint64_t p) { return e.depth < p; });
  if (it != entries.end() && it->depth == position) {
    complete_span(it->slot, label);
    it = entries.erase(it);
  }
  for (; it != entries.end(); ++it) --it->depth;
}

void BallTracer::on_requeue(std::uint32_t bin, std::uint64_t label) {
  if (!enabled_) return;
  flush_cursor();
  // Requeued balls append after this round's rejected survivors of the
  // same label, in (bin, pop) order — see the position convention above.
  const auto rejected_it = rejected_total_.find(label);
  const std::uint64_t rejected =
      rejected_it == rejected_total_.end() ? 0 : rejected_it->second;
  const std::uint64_t position = rejected + requeued_so_far_[label]++;
  if (bin >= bin_shadow_.size()) return;
  auto& entries = bin_shadow_[bin];
  if (!entries.empty() && entries.front().depth == 0) {
    const std::uint32_t slot = entries.front().slot;
    entries.erase(entries.begin());
    for (auto& entry : entries) --entry.depth;
    ActiveSpan& active = slots_[slot];
    IBA_ASSERT(active.span.arrival_round == label);
    active.span.bin_rounds += round_ - active.last_accept;
    ++active.span.requeues;
    active.stint_start = round_;
    next_pool_[label].push_back({position, slot});
  } else {
    for (auto& entry : entries) --entry.depth;
  }
}

void BallTracer::on_round_end(std::uint64_t round) {
  round_ = round;
  if (!enabled_) return;
  flush_cursor();
  pool_shadow_.swap(next_pool_);
  next_pool_.clear();
  rejected_total_.clear();
  requeued_so_far_.clear();
}

void BallTracer::clear_completed() {
  completed_.clear();
  dropped_ = 0;
  pool_wait_ = DyadicHistogram{};
  bin_wait_ = DyadicHistogram{};
}

void record_ball_trace(Registry& registry, const BallTracer& tracer) {
  registry.counter("spans_sampled_total").inc(tracer.sampled_arrivals());
  registry.counter("spans_completed_total").inc(tracer.completed_total());
  registry.counter("spans_skipped_total").inc(tracer.skipped_samples());
  registry.counter("spans_dropped_total").inc(tracer.dropped());
  registry.histogram("span_pool_rounds").merge(tracer.pool_wait());
  registry.histogram("span_binq_rounds").merge(tracer.bin_wait());
}

}  // namespace iba::telemetry
