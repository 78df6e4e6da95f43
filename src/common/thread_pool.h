// A minimal fixed-size work-queue thread pool (std::thread +
// condition_variable, no external deps). Built for the dataset-scale batch
// ranking path: scenes fan out across the pool and results merge back in
// deterministic order, so the pool itself needs no ordering guarantees —
// only completion and exception propagation.
#ifndef FIXY_COMMON_THREAD_POOL_H_
#define FIXY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"

namespace fixy {

/// The most threads one pool may start. Thread counts come from flags and
/// options; a typo must not start thousands of threads.
inline constexpr int kMaxThreads = 1024;

/// A fixed pool of worker threads consuming a FIFO task queue.
///
/// Tasks submitted after construction run on some worker; Submit returns a
/// future that becomes ready when the task finishes and rethrows any
/// exception the task raised. The destructor drains the queue — every task
/// submitted before destruction runs to completion — then joins the
/// workers, so destroying a busy pool is safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; values < 1 (including the default 0)
  /// fall back to ResolveThreadCount's hardware concurrency. Aborts
  /// (FIXY_CHECK) before starting any thread if `num_threads` exceeds
  /// kMaxThreads. If the host refuses a thread (std::system_error), the
  /// workers already started are stopped and joined before the exception
  /// leaves the constructor.
  explicit ThreadPool(int num_threads = 0);

  /// The constructor for callers that report errors as Status: a thread
  /// the host refuses (a low process limit) comes back as Unavailable
  /// instead of an exception.
  static Result<std::unique_ptr<ThreadPool>> Create(int num_threads = 0);

  /// Drains pending tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. The returned future reports completion
  /// and propagates any exception thrown by the task.
  std::future<void> Submit(std::function<void()> task);

  size_t thread_count() const { return workers_.size(); }

  /// The effective thread count for a requested value: `requested` if > 0,
  /// otherwise hardware concurrency (minimum 1, at most kMaxThreads).
  static int ResolveThreadCount(int requested);

 private:
  void WorkerLoop();
  /// Lets the workers drain the queue and exit, then joins them.
  void StopAndJoin();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fixy

#endif  // FIXY_COMMON_THREAD_POOL_H_
