// AgedPool — the pool of unallocated balls, bucketed by generation round.
//
// Balls of the same round are indistinguishable, so the pool is a deque of
// (label, count) buckets ordered oldest → youngest. "Bins prefer the
// oldest balls" then falls out of iterating buckets in order while bins
// accept greedily, with no sorting and O(#buckets + #balls) work per round.
// The number of buckets is bounded by the oldest ball's age, which the
// paper shows stays small w.h.p.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "common/assert.hpp"

namespace iba::queueing {

/// Multiset of balls keyed by generation label, ordered oldest-first.
class AgedPool {
 public:
  using Label = std::uint64_t;

  struct Bucket {
    Label label;
    std::uint64_t count;
  };

  /// Adds `count` balls generated in round `label`. Labels must arrive in
  /// non-decreasing order (they do: survivors are re-added oldest-first,
  /// then the new round's balls carry the largest label so far).
  void add(Label label, std::uint64_t count) {
    if (count == 0) return;
    IBA_ASSERT(buckets_.empty() || buckets_.back().label <= label);
    if (!buckets_.empty() && buckets_.back().label == label) {
      buckets_.back().count += count;
    } else {
      buckets_.push_back({label, count});
    }
    total_ += count;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }

  [[nodiscard]] const std::deque<Bucket>& buckets() const noexcept {
    return buckets_;
  }

  /// Label of the oldest ball. Precondition: !empty().
  [[nodiscard]] Label oldest() const noexcept {
    IBA_ASSERT(!buckets_.empty());
    return buckets_.front().label;
  }

  /// Age of the oldest ball at round `now` (0 when empty).
  [[nodiscard]] std::uint64_t oldest_age(std::uint64_t now) const noexcept {
    if (buckets_.empty()) return 0;
    IBA_ASSERT(buckets_.front().label <= now);
    return now - buckets_.front().label;
  }

  /// Number of balls with label ≤ `cutoff` (oldest-first prefix count).
  [[nodiscard]] std::uint64_t count_older_or_equal(
      Label cutoff) const noexcept {
    std::uint64_t count = 0;
    for (const Bucket& b : buckets_) {
      if (b.label > cutoff) break;
      count += b.count;
    }
    return count;
  }

  /// Merges `entries` (labels ascending) into the pool, preserving the
  /// oldest-first bucket order: an entry whose label already has a
  /// bucket joins it. Readmitted deferred arrivals and crash-requeued
  /// balls re-enter the pool this way.
  void merge_sorted(std::span<const Bucket> entries) {
    AgedPool merged;
    std::size_t i = 0;
    for (const Bucket& bucket : buckets_) {
      for (; i < entries.size() && entries[i].label < bucket.label; ++i) {
        merged.add(entries[i].label, entries[i].count);
      }
      if (i < entries.size() && entries[i].label == bucket.label) {
        merged.add(bucket.label, bucket.count + entries[i].count);
        ++i;
      } else {
        merged.add(bucket.label, bucket.count);
      }
    }
    for (; i < entries.size(); ++i) {
      merged.add(entries[i].label, entries[i].count);
    }
    swap(merged);
  }

  void clear() noexcept {
    buckets_.clear();
    total_ = 0;
  }

  void swap(AgedPool& other) noexcept {
    buckets_.swap(other.buckets_);
    std::swap(total_, other.total_);
  }

 private:
  std::deque<Bucket> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace iba::queueing
