#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fixy {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(4), 4);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
  EXPECT_LE(ThreadPool::ResolveThreadCount(0), kMaxThreads);
}

TEST(ThreadPoolTest, MoreThanMaxThreadsAbortsBeforeStartingAny) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ThreadPool pool(kMaxThreads + 1), "CHECK failed");
}

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

// Create is what the library's callers use. Its Unavailable path needs a
// host that refuses a thread below kMaxThreads, which no test provokes.
TEST(ThreadPoolTest, CreateReturnsARunningPool) {
  Result<std::unique_ptr<ThreadPool>> pool = ThreadPool::Create(3);
  ASSERT_TRUE(pool.ok()) << pool.status();
  EXPECT_EQ((*pool)->thread_count(), 3u);
  std::atomic<int> ran{0};
  (*pool)->Submit([&ran] { ++ran; }).get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPoolPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionDoesNotKillWorkers) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("boom"); });
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++completed;
      });
    }
    // Destructor runs while most tasks are still queued.
  }
  EXPECT_EQ(completed.load(), 32);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::promise<void> inner_done;
  std::future<void> inner_future = inner_done.get_future();
  pool.Submit([&] {
        ++counter;
        pool.Submit([&] {
              ++counter;
              inner_done.set_value();
            });
      })
      .get();
  inner_future.wait();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace fixy
