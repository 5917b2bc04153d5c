#include "concurrency/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace iba::concurrency {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++running_;
    }
    task();
    {
      const std::lock_guard lock(mutex_);
      --running_;
      if (tasks_.empty() && running_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && running_ == 0; });
}

void parallel_for_ranges(
    ThreadPool& pool, std::size_t count, std::size_t ranges,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  IBA_EXPECT(ranges > 0, "parallel_for_ranges: needs at least one range");
  const std::size_t base = count / ranges;
  const std::size_t remainder = count % ranges;
  std::vector<std::future<void>> futures;
  futures.reserve(ranges);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < ranges && begin < count; ++i) {
    const std::size_t size = base + (i < remainder ? 1 : 0);
    const std::size_t end = begin + size;
    futures.push_back(
        pool.submit([&fn, i, begin, end] { fn(i, begin, end); }));
    begin = end;
  }
  // Drain every range before rethrowing: the queued tasks capture fn by
  // reference, so returning while any are still pending would leave them
  // a dangling callable.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  // Same drain-then-rethrow as parallel_for_ranges: no task may outlive
  // the caller's fn.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace iba::concurrency
