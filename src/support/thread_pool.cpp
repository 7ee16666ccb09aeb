#include "support/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "support/check.h"

namespace xcv {

namespace {

// Scheduler observability (src/obs/metrics.h). All pools in the process
// report into one family set; the registry lookups resolve once into
// function-local statics and each update is a relaxed atomic op (one
// relaxed load when metrics are disabled).
obs::Counter& TasksCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "xcv_scheduler_tasks_total", "Tasks submitted to the shared pools.");
  return c;
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g = obs::Registry::Global().GetGauge(
      "xcv_scheduler_queue_depth",
      "Outstanding tasks (queued + deferred + running) across pools.");
  return g;
}

obs::Histogram& TaskWaitHistogram() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "xcv_scheduler_task_wait_seconds",
      "Seconds a task spent queued before a worker picked it up.",
      obs::DefaultSecondsBuckets());
  return h;
}

obs::Histogram& TaskRunHistogram() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "xcv_scheduler_task_run_seconds", "Seconds a task ran on a worker.",
      obs::DefaultSecondsBuckets());
  return h;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// Max-heap order: highest priority first, earliest submission among ties.
struct ItemHeapLess {
  template <typename ItemT>
  bool operator()(const ItemT& a, const ItemT& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  Grow(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(const std::shared_ptr<Group>& group, double priority,
                        std::function<void()> task) {
  XCV_CHECK(task != nullptr);
  XCV_CHECK(group != nullptr);
  if (std::isnan(priority)) priority = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  XCV_CHECK_MSG(!shutdown_, "Submit after shutdown");
  Item item;
  item.priority = priority;
  item.seq = next_seq_++;
  item.group = group;
  item.fn = std::move(task);
  if (obs::MetricsEnabled()) {
    item.enqueued = std::chrono::steady_clock::now();
    TasksCounter().Inc();
  }
  ++outstanding_;
  QueueDepthGauge().Set(static_cast<double>(outstanding_));
  ++group->pending_;
  frontier_.push_back(std::move(item));
  std::push_heap(frontier_.begin(), frontier_.end(), ItemHeapLess{});
  work_cv_.notify_one();
}

std::shared_ptr<ThreadPool::Group> ThreadPool::MakeGroup(
    std::size_t max_parallelism) {
  return std::shared_ptr<Group>(new Group(max_parallelism));
}

void ThreadPool::Wait(const std::shared_ptr<Group>& group) {
  XCV_CHECK(group != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return group->pending_ == 0; });
}

void ThreadPool::Grow(std::size_t num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  XCV_CHECK_MSG(!shutdown_, "Grow after shutdown");
  while (workers_.size() < num_threads)
    workers_.emplace_back([this] { WorkerLoop(); });
}

std::size_t ThreadPool::NumThreads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

ThreadPool& ThreadPool::Global(std::size_t min_threads) {
  static std::mutex m;
  // Leaked on purpose: the shared pool may be referenced from static
  // destructors (report tables, test fixtures); joining workers during
  // static teardown is not worth the risk for a process-lifetime object.
  static ThreadPool* pool = nullptr;
  std::lock_guard<std::mutex> lock(m);
  if (pool == nullptr) {
    pool = new ThreadPool(std::max<std::size_t>(1, min_threads));
  } else if (pool->NumThreads() < min_threads) {
    pool->Grow(min_threads);
  }
  return *pool;
}

bool ThreadPool::TryTakeLocked(Item* out) {
  // Items whose group is at its concurrency limit are parked on the
  // group's deferred heap; a completion of that group promotes the best one
  // back (FinishItemLocked).
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), ItemHeapLess{});
    Item item = std::move(frontier_.back());
    frontier_.pop_back();
    Group& g = *item.group;
    if (g.limit_ > 0 && g.running_ >= g.limit_) {
      g.deferred_.push_back(std::move(item));
      std::push_heap(g.deferred_.begin(), g.deferred_.end(), ItemHeapLess{});
      continue;
    }
    *out = std::move(item);
    return true;
  }
  return false;
}

void ThreadPool::FinishItemLocked(const Item& item) {
  --outstanding_;
  QueueDepthGauge().Set(static_cast<double>(outstanding_));
  Group& g = *item.group;
  --g.running_;
  --g.pending_;
  // One completion frees one slot: promote the best deferred task.
  if (!g.deferred_.empty() && (g.limit_ == 0 || g.running_ < g.limit_)) {
    std::pop_heap(g.deferred_.begin(), g.deferred_.end(), ItemHeapLess{});
    frontier_.push_back(std::move(g.deferred_.back()));
    g.deferred_.pop_back();
    std::push_heap(frontier_.begin(), frontier_.end(), ItemHeapLess{});
    work_cv_.notify_one();
  }
  if (g.pending_ == 0 || outstanding_ == 0) idle_cv_.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Item item;
    if (TryTakeLocked(&item)) {
      ++item.group->running_;
      lock.unlock();
      const bool observe = obs::MetricsEnabled() &&
                           item.enqueued.time_since_epoch().count() != 0;
      if (observe) TaskWaitHistogram().Observe(SecondsSince(item.enqueued));
      const auto run_start = observe ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
      item.fn();  // Exceptions from tasks are intentionally fatal (terminate):
                  // RunEngines' tickets catch their own errors and rethrow
                  // the first one from the driver once the group drains.
      if (observe) TaskRunHistogram().Observe(SecondsSince(run_start));
      item.fn = nullptr;
      lock.lock();
      FinishItemLocked(item);
      continue;
    }
    if (shutdown_) return;
    work_cv_.wait(lock);
  }
}

}  // namespace xcv
