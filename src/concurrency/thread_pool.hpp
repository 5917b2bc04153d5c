// A small fixed-size thread pool. core::Capped's sharded rounds fan their
// per-shard work across it with parallel_for_ranges. Determinism is
// preserved because each task's work is a function of its index and
// range, never of scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace iba::concurrency {

/// Fixed-size worker pool. submit() returns a future; tasks run FIFO.
/// The destructor drains outstanding tasks before joining.
class ThreadPool {
 public:
  /// `threads` = 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Schedules `fn` and returns a future for its result.
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    auto future = task->get_future();
    {
      const std::lock_guard lock(mutex_);
      IBA_EXPECT(!stopping_, "ThreadPool: submit after shutdown");
      tasks_.emplace_back([task]() { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Blocks until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::size_t running_ = 0;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, count) on the pool, blocking until all done.
/// Exceptions from tasks propagate (the first one encountered rethrows).
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Splits [0, count) into `ranges` contiguous chunks whose sizes differ
/// by at most one and runs fn(range_index, begin, end) on the pool,
/// blocking until all complete. The partition is a pure function of
/// (count, ranges) — never of scheduling — so range-sharded algorithms
/// that pre-draw their randomness per range stay deterministic for any
/// thread count. Chunks beyond `count` (ranges > count) are skipped.
/// Exceptions from tasks propagate (the first one encountered rethrows).
void parallel_for_ranges(
    ThreadPool& pool, std::size_t count, std::size_t ranges,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

}  // namespace iba::concurrency
