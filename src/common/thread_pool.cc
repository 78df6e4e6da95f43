#include "common/thread_pool.h"

#include <algorithm>
#include <system_error>

#include "common/logging.h"
#include "common/string_util.h"

namespace fixy {

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(hw, 1u, static_cast<unsigned>(kMaxThreads)));
}

ThreadPool::ThreadPool(int num_threads) {
  FIXY_CHECK(num_threads <= kMaxThreads);
  const int count = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(count));
  try {
    for (int i = 0; i < count; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // Destroying a joinable std::thread calls std::terminate.
    StopAndJoin();
    throw;
  }
}

Result<std::unique_ptr<ThreadPool>> ThreadPool::Create(int num_threads) {
  try {
    return std::make_unique<ThreadPool>(num_threads);
  } catch (const std::system_error& e) {
    return Status::Unavailable(
        StrFormat("cannot start %d worker threads: %s",
                  ResolveThreadCount(num_threads), e.what()));
  }
}

ThreadPool::~ThreadPool() { StopAndJoin(); }

void ThreadPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      // Drain the queue even when shutting down: every submitted task's
      // future must become ready (the batch path waits on them).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A packaged_task captures the exception in the future; run outside the
    // lock so tasks may submit further work.
    task();
  }
}

}  // namespace fixy
