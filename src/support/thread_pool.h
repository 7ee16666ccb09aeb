// The shared priority scheduler behind every parallel subsystem.
//
// Every task belongs to a Group and joins the pool's one *priority
// frontier* (highest priority first, FIFO among equals). A Group tracks its
// outstanding tasks (Wait blocks until the group drains) and can cap how
// many of its tasks run concurrently, so many independent clients — e.g.
// every (functional, condition) pair of a verification campaign — share one
// pool without oversubscribing it.
//
// Tasks may submit further tasks (an engine's tickets hand out the next
// ones). ~ThreadPool() waits for quiescence: nothing queued, deferred, or
// running. Process-wide sharing goes through ThreadPool::Global(), which
// grows on demand.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xcv {

class ThreadPool {
 public:
  /// A related set of tasks on a shared pool: completion tracking plus an
  /// optional concurrency cap. Create via MakeGroup(); all state is guarded
  /// by the pool, so a Group is only meaningful with its owning pool.
  class Group;

  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Waits for quiescence, then joins the workers.
  ~ThreadPool();

  /// Enqueues a task on the priority frontier. Higher `priority` runs
  /// first; ties run in submission order. At most the group's
  /// `max_parallelism` tasks run concurrently. Safe to call from tasks.
  void Submit(const std::shared_ptr<Group>& group, double priority,
              std::function<void()> task);

  /// Creates a task group. `max_parallelism` 0 means unlimited.
  std::shared_ptr<Group> MakeGroup(std::size_t max_parallelism = 0);

  /// Blocks until every task submitted to `group` has completed.
  void Wait(const std::shared_ptr<Group>& group);

  /// Adds workers until the pool has at least `num_threads`. Never shrinks
  /// (running tasks cannot be migrated off a worker).
  void Grow(std::size_t num_threads);

  std::size_t NumThreads() const;

  /// The process-wide shared pool, created on first use with at least
  /// `min_threads` workers and grown on demand. Never destroyed (workers
  /// may outlive static destruction order otherwise).
  static ThreadPool& Global(std::size_t min_threads);

 private:
  struct Item {
    double priority = 0.0;
    std::uint64_t seq = 0;
    std::shared_ptr<Group> group;
    std::function<void()> fn;
    // Submit timestamp for the scheduler's task-wait-latency histogram
    // (src/obs/metrics.h). Stamped only when metrics are enabled; a zero
    // value means "don't observe".
    std::chrono::steady_clock::time_point enqueued{};
  };

  void WorkerLoop();
  bool TryTakeLocked(Item* out);
  void FinishItemLocked(const Item& item);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // work arrived / shutdown
  std::condition_variable idle_cv_;  // pool-idle and group-drained events
  std::vector<Item> frontier_;       // max-heap (std::push_heap/pop_heap)
  std::uint64_t next_seq_ = 0;
  std::size_t outstanding_ = 0;  // queued + deferred + running
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

class ThreadPool::Group {
 public:
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

 private:
  friend class ThreadPool;
  explicit Group(std::size_t limit) : limit_(limit) {}

  // All fields guarded by the owning pool's mutex.
  std::size_t limit_;           // max concurrent tasks; 0 = unlimited
  std::size_t running_ = 0;
  std::size_t pending_ = 0;     // queued + deferred + running
  std::vector<Item> deferred_;  // popped while at limit; max-heap
};

}  // namespace xcv
