// Tests for the storage substrate: BinTable, UnboundedBinTable,
// AgedPool — FIFO semantics, accounting invariants, and contract checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "queueing/aged_pool.hpp"
#include "queueing/bin_table.hpp"
#include "queueing/unbounded_bin_table.hpp"

namespace {

using namespace iba::queueing;

TEST(BinTable, ConstructionInvariants) {
  BinTable bt(8, 3);
  EXPECT_EQ(bt.bins(), 8u);
  EXPECT_EQ(bt.capacity(), 3u);
  EXPECT_EQ(bt.total_load(), 0u);
  EXPECT_EQ(bt.max_load(), 0u);
  EXPECT_EQ(bt.empty_bins(), 8u);
  EXPECT_THROW(BinTable(0, 1), iba::ContractViolation);
  EXPECT_THROW(BinTable(1, 0), iba::ContractViolation);
}

TEST(BinTable, PerBinFifo) {
  BinTable bt(2, 3);
  bt.push(0, 100);
  bt.push(1, 200);
  bt.push(0, 101);
  bt.push(0, 102);
  EXPECT_EQ(bt.load(0), 3u);
  EXPECT_EQ(bt.load(1), 1u);
  EXPECT_EQ(bt.total_load(), 4u);
  EXPECT_EQ(bt.max_load(), 3u);
  EXPECT_EQ(bt.empty_bins(), 0u);

  EXPECT_EQ(bt.pop_front(0), 100u);
  EXPECT_EQ(bt.pop_front(0), 101u);
  bt.push(0, 103);
  EXPECT_EQ(bt.pop_front(0), 102u);
  EXPECT_EQ(bt.pop_front(0), 103u);
  EXPECT_EQ(bt.pop_front(1), 200u);
  EXPECT_EQ(bt.total_load(), 0u);
}

TEST(BinTable, PeekDoesNotConsume) {
  BinTable bt(1, 4);
  bt.push(0, 7);
  bt.push(0, 8);
  EXPECT_EQ(bt.peek(0, 0), 7u);
  EXPECT_EQ(bt.peek(0, 1), 8u);
  EXPECT_EQ(bt.load(0), 2u);
}

TEST(BinTable, PopBackIsLifo) {
  BinTable bt(1, 4);
  bt.push(0, 1);
  bt.push(0, 2);
  bt.push(0, 3);
  EXPECT_EQ(bt.pop_back(0), 3u);
  EXPECT_EQ(bt.pop_back(0), 2u);
  bt.push(0, 4);
  EXPECT_EQ(bt.pop_front(0), 1u);
  EXPECT_EQ(bt.pop_back(0), 4u);
  EXPECT_EQ(bt.total_load(), 0u);
}

TEST(BinTable, PopAtPreservesRemainderOrder) {
  BinTable bt(1, 5);
  for (std::uint64_t v = 1; v <= 5; ++v) bt.push(0, v);
  EXPECT_EQ(bt.pop_at(0, 2), 3u);  // remove the middle element
  EXPECT_EQ(bt.pop_front(0), 1u);
  EXPECT_EQ(bt.pop_front(0), 2u);
  EXPECT_EQ(bt.pop_front(0), 4u);
  EXPECT_EQ(bt.pop_front(0), 5u);
}

TEST(BinTable, PopAtEndsEqualFrontAndBack) {
  BinTable bt(1, 3);
  bt.push(0, 10);
  bt.push(0, 20);
  bt.push(0, 30);
  EXPECT_EQ(bt.pop_at(0, 0), 10u);  // == pop_front
  EXPECT_EQ(bt.pop_at(0, 1), 30u);  // == pop_back
  EXPECT_EQ(bt.pop_at(0, 0), 20u);
}

TEST(BinTable, PopAtWrapsAroundRing) {
  BinTable bt(1, 3);
  // Advance the head so the queue wraps physically.
  bt.push(0, 1);
  bt.push(0, 2);
  (void)bt.pop_front(0);
  (void)bt.pop_front(0);
  bt.push(0, 3);
  bt.push(0, 4);
  bt.push(0, 5);
  EXPECT_EQ(bt.pop_at(0, 1), 4u);
  EXPECT_EQ(bt.pop_front(0), 3u);
  EXPECT_EQ(bt.pop_front(0), 5u);
}

TEST(BinTable, CycleThroughCapacityManyRounds) {
  // Simulates many accept/delete rounds per bin; ring indices must wrap.
  BinTable bt(4, 2);
  std::uint64_t next_label = 0;
  std::vector<std::uint64_t> expected_front(4, 0);
  for (int round = 0; round < 500; ++round) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (bt.load(b) < 2) bt.push(b, next_label++);
    }
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (bt.load(b) > 0) {
        const auto lab = bt.pop_front(b);
        EXPECT_GE(lab, expected_front[b]);
        expected_front[b] = lab;
      }
    }
  }
  EXPECT_LE(bt.max_load(), 2u);
}

TEST(BinTable, HeadWrapsAtEveryOffset) {
  // Drive the head cursor through every physical slot and verify FIFO
  // semantics and peek at each offset — the conditional-wrap arithmetic
  // must behave exactly like the old modulo indexing.
  const std::uint32_t capacity = 5;
  BinTable bt(1, capacity);
  std::uint64_t next = 1, expect = 1;
  for (int cycle = 0; cycle < 4 * static_cast<int>(capacity); ++cycle) {
    while (bt.load(0) < capacity) bt.push(0, next++);
    for (std::uint32_t i = 0; i < capacity; ++i) {
      EXPECT_EQ(bt.peek(0, i), expect + i);
    }
    EXPECT_EQ(bt.pop_front(0), expect++);
    EXPECT_EQ(bt.pop_front(0), expect++);
  }
}

TEST(BinTable, PopBackAcrossWrap) {
  BinTable bt(1, 3);
  bt.push(0, 1);
  bt.push(0, 2);
  bt.push(0, 3);
  (void)bt.pop_front(0);
  (void)bt.pop_front(0);
  bt.push(0, 4);  // physically wraps past slot capacity-1
  bt.push(0, 5);
  EXPECT_EQ(bt.pop_back(0), 5u);
  EXPECT_EQ(bt.pop_back(0), 4u);
  EXPECT_EQ(bt.pop_back(0), 3u);
}

TEST(BinTable, DrainBulkVisitsFrontToBack) {
  BinTable bt(1, 4);
  bt.push(0, 1);
  bt.push(0, 2);
  (void)bt.pop_front(0);
  bt.push(0, 3);
  bt.push(0, 4);
  bt.push(0, 5);  // queue 2,3,4,5 with head mid-ring
  std::vector<std::uint64_t> drained;
  bt.drain_bulk(0, [&](std::uint64_t label) { drained.push_back(label); });
  bt.adjust_total_load(-static_cast<std::int64_t>(drained.size()));
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{2, 3, 4, 5}));
  EXPECT_EQ(bt.load(0), 0u);
  EXPECT_EQ(bt.total_load(), 0u);
}

TEST(BinTable, RemoveAtDefersTotalLoad) {
  BinTable bt(1, 3);
  bt.push(0, 7);
  bt.push(0, 8);
  EXPECT_EQ(bt.remove_at(0, 0), 7u);
  EXPECT_EQ(bt.total_load(), 2u);  // deferred
  bt.adjust_total_load(-1);
  EXPECT_EQ(bt.total_load(), 1u);
  EXPECT_EQ(bt.load(0), 1u);
}

TEST(BinTable, ClearResetsAll) {
  BinTable bt(3, 2);
  bt.push(0, 1);
  bt.push(2, 2);
  bt.clear();
  EXPECT_EQ(bt.total_load(), 0u);
  EXPECT_EQ(bt.empty_bins(), 3u);
  bt.push(0, 5);
  EXPECT_EQ(bt.pop_front(0), 5u);
}

TEST(UnboundedBinTable, FifoAndLoads) {
  UnboundedBinTable ut(2);
  for (std::uint64_t i = 0; i < 100; ++i) ut.push(0, i);
  ut.push(1, 999);
  EXPECT_EQ(ut.load(0), 100u);
  EXPECT_EQ(ut.max_load(), 100u);
  EXPECT_EQ(ut.total_load(), 101u);
  EXPECT_EQ(ut.empty_bins(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(ut.pop_front(0), i);
  EXPECT_EQ(ut.empty_bins(), 1u);
}

TEST(UnboundedBinTable, CompactionPreservesOrder) {
  UnboundedBinTable ut(1);
  // Interleave pushes and pops past the compaction threshold.
  std::uint64_t next = 0, expect = 0;
  for (int i = 0; i < 50; ++i) ut.push(0, next++);
  for (int round = 0; round < 1000; ++round) {
    ut.push(0, next++);
    ASSERT_EQ(ut.pop_front(0), expect++);
  }
  EXPECT_EQ(ut.load(0), 50u);
}

TEST(UnboundedBinTable, RejectsZeroBins) {
  EXPECT_THROW(UnboundedBinTable(0), iba::ContractViolation);
}

TEST(AgedPool, MergeSortedJoinsAndInterleavesBuckets) {
  AgedPool pool;
  pool.add(3, 2);
  pool.add(5, 4);
  const AgedPool::Bucket entries[] = {{1, 1}, {5, 3}, {7, 2}};
  pool.merge_sorted(entries);
  ASSERT_EQ(pool.bucket_count(), 4u);
  const std::uint64_t labels[] = {1, 3, 5, 7};
  const std::uint64_t counts[] = {1, 2, 7, 2};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.buckets()[i].label, labels[i]);
    EXPECT_EQ(pool.buckets()[i].count, counts[i]);
  }
  EXPECT_EQ(pool.total(), 12u);
}

TEST(AgedPool, CoalescesSameLabel) {
  AgedPool pool;
  pool.add(5, 10);
  pool.add(5, 3);
  pool.add(6, 1);
  EXPECT_EQ(pool.total(), 14u);
  EXPECT_EQ(pool.bucket_count(), 2u);
  EXPECT_EQ(pool.oldest(), 5u);
}

TEST(AgedPool, IgnoresZeroCount) {
  AgedPool pool;
  pool.add(1, 0);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.bucket_count(), 0u);
}

TEST(AgedPool, OldestAge) {
  AgedPool pool;
  EXPECT_EQ(pool.oldest_age(10), 0u);
  pool.add(7, 2);
  pool.add(9, 1);
  EXPECT_EQ(pool.oldest_age(10), 3u);
}

TEST(AgedPool, CountOlderOrEqual) {
  AgedPool pool;
  pool.add(1, 5);
  pool.add(3, 7);
  pool.add(8, 2);
  EXPECT_EQ(pool.count_older_or_equal(0), 0u);
  EXPECT_EQ(pool.count_older_or_equal(1), 5u);
  EXPECT_EQ(pool.count_older_or_equal(3), 12u);
  EXPECT_EQ(pool.count_older_or_equal(100), 14u);
}

TEST(AgedPool, SwapExchangesContents) {
  AgedPool a, b;
  a.add(1, 10);
  b.add(2, 20);
  a.swap(b);
  EXPECT_EQ(a.total(), 20u);
  EXPECT_EQ(a.oldest(), 2u);
  EXPECT_EQ(b.total(), 10u);
}

TEST(AgedPool, IterationIsOldestFirst) {
  AgedPool pool;
  pool.add(2, 1);
  pool.add(4, 1);
  pool.add(9, 1);
  std::uint64_t prev = 0;
  for (const auto& bucket : pool.buckets()) {
    EXPECT_GT(bucket.label, prev);
    prev = bucket.label;
  }
}

}  // namespace
