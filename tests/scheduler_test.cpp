#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/thread_pool.h"

namespace xcv {
namespace {

// Blocks the pool's only worker until Release(), so tasks submitted in the
// meantime are ordered purely by the priority frontier.
class Gate {
 public:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto group = pool.MakeGroup();
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit(group, 0.0, [&count] { ++count; });
  pool.Wait(group);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumThreads(), 1u);
  auto group = pool.MakeGroup();
  std::atomic<bool> ran{false};
  pool.Submit(group, 0.0, [&ran] { ran = true; });
  pool.Wait(group);
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(1);
  pool.Wait(pool.MakeGroup());  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorRunsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    auto group = pool.MakeGroup();
    for (int i = 0; i < 32; ++i)
      pool.Submit(group, 0.0, [&count] { ++count; });
  }  // no Wait: the destructor waits for quiescence before joining
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, PriorityFrontierOrdersTasks) {
  ThreadPool pool(1);
  Gate gate;
  std::atomic<bool> pinned{false};
  // Pin the single worker so later submissions queue up on the frontier.
  pool.Submit(pool.MakeGroup(), 0.0, [&gate, &pinned] {
    pinned = true;
    gate.Wait();
  });
  while (!pinned) std::this_thread::yield();

  auto group = pool.MakeGroup();
  std::mutex mu;
  std::vector<int> order;
  for (int p : {1, 5, 3, 4, 2}) {
    pool.Submit(group, static_cast<double>(p), [&mu, &order, p] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(p);
    });
  }
  gate.Release();
  pool.Wait(group);
  EXPECT_EQ(order, (std::vector<int>{5, 4, 3, 2, 1}));
}

TEST(ThreadPool, EqualPriorityIsFifo) {
  ThreadPool pool(1);
  Gate gate;
  std::atomic<bool> pinned{false};
  pool.Submit(pool.MakeGroup(), 0.0, [&gate, &pinned] {
    pinned = true;
    gate.Wait();
  });
  while (!pinned) std::this_thread::yield();

  auto group = pool.MakeGroup();
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.Submit(group, 1.0, [&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  gate.Release();
  pool.Wait(group);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, GroupConcurrencyLimit) {
  ThreadPool pool(4);
  auto group = pool.MakeGroup(/*max_parallelism=*/2);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit(group, 0.0, [&running, &max_running] {
      const int now = ++running;
      int seen = max_running.load();
      while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --running;
    });
  }
  pool.Wait(group);
  EXPECT_LE(max_running.load(), 2);
  EXPECT_GE(max_running.load(), 1);
}

TEST(ThreadPool, TwoGroupsShareOnePool) {
  ThreadPool pool(4);
  auto a = pool.MakeGroup(2);
  auto b = pool.MakeGroup(2);
  std::atomic<int> count_a{0}, count_b{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit(a, 1.0, [&count_a] { ++count_a; });
    pool.Submit(b, 2.0, [&count_b] { ++count_b; });
  }
  pool.Wait(a);
  pool.Wait(b);
  EXPECT_EQ(count_a.load(), 20);
  EXPECT_EQ(count_b.load(), 20);
}

TEST(ThreadPool, GroupTasksMaySubmitMoreGroupTasks) {
  ThreadPool pool(2);
  auto group = pool.MakeGroup(2);
  std::atomic<int> count{0};
  std::function<void(int)> fan = [&](int depth) {
    ++count;
    if (depth == 0) return;
    pool.Submit(group, static_cast<double>(depth),
                [&fan, depth] { fan(depth - 1); });
    pool.Submit(group, static_cast<double>(depth),
                [&fan, depth] { fan(depth - 1); });
  };
  pool.Submit(group, 10.0, [&fan] { fan(5); });
  pool.Wait(group);
  EXPECT_EQ(count.load(), 63);
}

TEST(ThreadPool, GrowAddsWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.NumThreads(), 1u);
  pool.Grow(3);
  EXPECT_EQ(pool.NumThreads(), 3u);
  pool.Grow(2);  // never shrinks
  EXPECT_EQ(pool.NumThreads(), 3u);
  auto group = pool.MakeGroup();
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) pool.Submit(group, 0.0, [&count] { ++count; });
  pool.Wait(group);
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, GlobalPoolIsSharedAndGrows) {
  ThreadPool& a = ThreadPool::Global(2);
  ThreadPool& b = ThreadPool::Global(3);
  EXPECT_EQ(&a, &b);
  EXPECT_GE(b.NumThreads(), 3u);
}

}  // namespace
}  // namespace xcv
