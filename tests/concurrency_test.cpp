// Tests for the thread pool: result delivery, ordering-independent
// correctness, exception propagation, wait_idle semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "concurrency/thread_pool.hpp"

namespace {

using iba::concurrency::ThreadPool;
using iba::concurrency::parallel_for;
using iba::concurrency::parallel_for_ranges;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& fut : futures) fut.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    (void)pool.submit([&done] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)fut.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
  auto fut = pool.submit([] { return 1; });
  EXPECT_EQ(fut.get(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("task 5");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForRanges, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t ranges : {1u, 2u, 3u, 7u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for_ranges(pool, 100, ranges,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) ++hits[i];
                        });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ParallelForRanges, PartitionIsDeterministicAndBalanced) {
  // The split must be a pure function of (count, ranges): sizes differ by
  // at most one and larger chunks come first — sharded kernels rely on
  // this to pre-draw randomness per range.
  ThreadPool pool(2);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks(5);
  parallel_for_ranges(pool, 17, 5,
                      [&](std::size_t r, std::size_t begin, std::size_t end) {
                        const std::lock_guard lock(mutex);
                        chunks[r] = {begin, end};
                      });
  EXPECT_EQ(chunks, (std::vector<std::pair<std::size_t, std::size_t>>{
                        {0, 4}, {4, 8}, {8, 11}, {11, 14}, {14, 17}}));
}

TEST(ParallelForRanges, MoreRangesThanItemsSkipsEmptyChunks) {
  ThreadPool pool(2);
  std::atomic<int> invocations{0};
  std::vector<std::atomic<int>> hits(3);
  parallel_for_ranges(pool, 3, 8,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        ++invocations;
                        for (std::size_t i = begin; i < end; ++i) ++hits[i];
                      });
  EXPECT_EQ(invocations.load(), 3);  // chunks beyond count never run
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForRanges, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for_ranges(pool, 10, 3,
                          [](std::size_t r, std::size_t, std::size_t) {
                            if (r == 1) throw std::runtime_error("range 1");
                          }),
      std::runtime_error);
}

TEST(ParallelForRanges, RejectsZeroRanges) {
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for_ranges(
                   pool, 4, 0, [](std::size_t, std::size_t, std::size_t) {}),
               iba::ContractViolation);
}

// Regression: a pool must stay usable after wait_idle — earlier drafts of
// such pools latch an "idle" flag or miss the wake notify on the next
// submit, hanging the second batch. Cycle through several
// submit/wait_idle generations, including empty ones.
TEST(ThreadPool, ReusableAcrossWaitIdleGenerations) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int generation = 1; generation <= 5; ++generation) {
    for (int i = 0; i < 20; ++i) {
      (void)pool.submit([&done] { ++done; });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), generation * 20);
    pool.wait_idle();  // idle pool: must return immediately, not hang
  }
}

// Regression: wait_idle must cover tasks that are *running* but already
// popped from the queue, not just a non-empty queue.
TEST(ThreadPool, WaitIdleSeesInFlightTasks) {
  ThreadPool pool(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  (void)pool.submit([&] {
    entered = true;
    while (!finished) std::this_thread::yield();
  });
  while (!entered) std::this_thread::yield();
  // The queue is now empty but the task is mid-flight; release it from a
  // second thread and verify wait_idle only returns after it completes.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished = true;
  });
  pool.wait_idle();
  EXPECT_TRUE(finished.load());
  releaser.join();
}

// Regression: the destructor drains every queued task before joining (the
// documented contract), and a single-worker pool preserves FIFO order —
// sharded rounds depend on tasks never being skipped.
TEST(ThreadPool, DestructorDrainsQueueInOrder) {
  std::vector<int> order;
  std::mutex order_mutex;
  {
    ThreadPool pool(1);
    // A slow head task guarantees the rest are still queued at ~ThreadPool.
    (void)pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&order, &order_mutex, i] {
        const std::lock_guard lock(order_mutex);
        order.push_back(i);
      });
    }
  }  // destructor must run all 32, front to back
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

}  // namespace
