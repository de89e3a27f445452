#include "support/parallel.hpp"

#include <algorithm>
#include <chrono>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace canb {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

const char* to_string(SchedMode mode) noexcept {
  return mode == SchedMode::kStealing ? "stealing" : "static";
}

std::optional<SchedMode> parse_sched_mode(std::string_view name) noexcept {
  if (name == "static") return SchedMode::kStatic;
  if (name == "stealing") return SchedMode::kStealing;
  return std::nullopt;
}

ThreadPool::ThreadPool(int threads, std::uint64_t steal_seed) : steal_seed_(steal_seed) {
  CANB_REQUIRE(threads >= 0, "thread count must be non-negative");
  const int extra = threads <= 1 ? 0 : threads - 1;  // caller thread works too
  tasks_.resize(static_cast<std::size_t>(extra));
  queues_ = std::vector<WorkerQueue>(static_cast<std::size_t>(extra) + 1);
  stats_ = std::vector<WorkerStats>(static_cast<std::size_t>(extra) + 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i)
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  std::size_t seen = 0;
  for (;;) {
    Task task;
    bool task_dispatch = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      task_dispatch = task_dispatch_;
      if (!task_dispatch) task = tasks_[index];
    }
    if (task_dispatch) {
      drain_tasks(static_cast<int>(index) + 1);
    } else if (task.fn && task.begin < task.end) {
      task.fn(task.ctx, task.begin, task.end);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_chunks(int begin, int end, RawChunkFn fn, void* ctx) {
  if (end <= begin) return;
  if (workers_.empty()) {
    fn(ctx, begin, end);
    return;
  }
  const int parts = static_cast<int>(workers_.size()) + 1;
  const int total = end - begin;
  const int chunk = (total + parts - 1) / parts;
  int next = begin + chunk;  // [begin, next) runs on the calling thread
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_dispatch_ = false;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const int b = std::min(end, next + static_cast<int>(i) * chunk);
      const int e = std::min(end, b + chunk);
      tasks_[i] = {fn, ctx, b, e};
    }
    pending_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  fn(ctx, begin, std::min(end, next));
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void ThreadPool::run_tasks(int tasks, RawTaskFn fn, void* ctx, const double* cost) {
  if (tasks <= 0) return;
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < tasks; ++t) fn(ctx, t, 0);
    const auto t1 = std::chrono::steady_clock::now();
    stats_[0].tasks.fetch_add(static_cast<std::uint64_t>(tasks), std::memory_order_relaxed);
    stats_[0].busy_ns.fetch_add(elapsed_ns(t0, t1), std::memory_order_relaxed);
    return;
  }

  // Initial contiguous partition over [0, tasks). Static mode reproduces
  // the historical equal-index chunks exactly; stealing mode additionally
  // cost-weights the cut points when hints are given, so the deques start
  // near-balanced and stealing only has to correct the residual skew.
  const int parts = thread_count();
  const bool stealing = mode_ == SchedMode::kStealing;
  if (stealing && cost != nullptr) {
    double total = 0.0;
    for (int t = 0; t < tasks; ++t) total += cost[t] > 0.0 ? cost[t] : 0.0;
    if (total <= 0.0) total = static_cast<double>(tasks);
    double cum = 0.0;
    int t = 0;
    for (int w = 0; w < parts; ++w) {
      const int b = t;
      const double target = total * static_cast<double>(w + 1) / static_cast<double>(parts);
      while (t < tasks && (cum < target || t == b)) {
        cum += cost[t] > 0.0 ? cost[t] : total / static_cast<double>(tasks);
        ++t;
      }
      // Leave at least one task for each remaining worker when possible.
      const int remaining_workers = parts - 1 - w;
      if (tasks - t < remaining_workers && t > b)
        t = std::max(b, tasks - remaining_workers);
      queues_[static_cast<std::size_t>(w)].head = b;
      queues_[static_cast<std::size_t>(w)].tail = w + 1 == parts ? tasks : t;
    }
  } else {
    const int chunk = (tasks + parts - 1) / parts;
    for (int w = 0; w < parts; ++w) {
      const int b = std::min(tasks, w * chunk);
      queues_[static_cast<std::size_t>(w)].head = b;
      queues_[static_cast<std::size_t>(w)].tail = std::min(tasks, b + chunk);
    }
  }

  const auto region_start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_dispatch_ = true;
    stealing_run_ = stealing;
    task_fn_ = fn;
    task_ctx_ = ctx;
    pending_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  drain_tasks(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  task_dispatch_ = false;
  // Every worker, the caller included, spans the whole region: whatever of
  // it a worker did not spend in task bodies (wake-up, steal probes, the
  // wait for the slowest worker) is its idle time.
  const std::uint64_t region = elapsed_ns(region_start, std::chrono::steady_clock::now());
  for (WorkerStats& ws : stats_) {
    const std::uint64_t busy = ws.region_busy_ns;
    ws.idle_ns.fetch_add(region > busy ? region - busy : 0, std::memory_order_relaxed);
  }
}

void ThreadPool::drain_tasks(int worker) {
  std::uint64_t busy = 0, ran = 0, stolen = 0;
  WorkerQueue& own = queues_[static_cast<std::size_t>(worker)];
  for (;;) {
    int b = -1, e = -1;
    {
      std::lock_guard<std::mutex> lock(own.m);
      if (own.head < own.tail) {
        b = own.head;
        e = ++own.head;
      }
    }
    if (b < 0) {
      if (!stealing_run_ || !try_steal(worker, &b, &e)) break;
      stolen += static_cast<std::uint64_t>(e - b);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = b; t < e; ++t) task_fn_(task_ctx_, t, worker);
    busy += elapsed_ns(t0, std::chrono::steady_clock::now());
    ran += static_cast<std::uint64_t>(e - b);
  }
  WorkerStats& ws = stats_[static_cast<std::size_t>(worker)];
  ws.tasks.fetch_add(ran, std::memory_order_relaxed);
  ws.steals.fetch_add(stolen, std::memory_order_relaxed);
  ws.busy_ns.fetch_add(busy, std::memory_order_relaxed);
  ws.region_busy_ns = busy;
}

bool ThreadPool::try_steal(int worker, int* b, int* e) {
  const int parts = thread_count();
  // Reseeded per drain-attempt from (seed, worker): probe sequences are a
  // pure function of the pool seed, never of timing.
  Xoshiro256 rng(steal_seed_ ^ (0x517cc1b727220a95ULL * static_cast<std::uint64_t>(worker + 1)));
  const int grain = steal_grain_;
  auto clip = [&](int victim) {
    WorkerQueue& q = queues_[static_cast<std::size_t>(victim)];
    std::lock_guard<std::mutex> lock(q.m);
    const int avail = q.tail - q.head;
    if (avail <= 0) return false;
    const int g = std::min(grain, avail);
    q.tail -= g;
    *b = q.tail;
    *e = q.tail + g;
    return true;
  };
  for (int probe = 0; probe < 2 * parts; ++probe) {
    const int victim = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(parts)));
    if (victim == worker) continue;
    if (clip(victim)) return true;
  }
  // Deterministic full sweep so termination never depends on probe luck.
  for (int d = 1; d < parts; ++d) {
    const int victim = (worker + d) % parts;
    if (clip(victim)) return true;
  }
  return false;
}

SchedulerStats ThreadPool::scheduler_stats() const {
  SchedulerStats out;
  out.calls = calls_.load(std::memory_order_relaxed);
  out.tasks_per_worker.resize(stats_.size());
  out.busy_seconds.resize(stats_.size());
  out.idle_seconds.resize(stats_.size());
  for (std::size_t w = 0; w < stats_.size(); ++w) {
    const std::uint64_t t = stats_[w].tasks.load(std::memory_order_relaxed);
    out.tasks_per_worker[w] = t;
    out.tasks += t;
    out.steals += stats_[w].steals.load(std::memory_order_relaxed);
    out.busy_seconds[w] =
        static_cast<double>(stats_[w].busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    out.idle_seconds[w] =
        static_cast<double>(stats_[w].idle_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  return out;
}

void ThreadPool::reset_scheduler_stats() {
  calls_.store(0, std::memory_order_relaxed);
  for (auto& ws : stats_) {
    ws.tasks.store(0, std::memory_order_relaxed);
    ws.steals.store(0, std::memory_order_relaxed);
    ws.busy_ns.store(0, std::memory_order_relaxed);
    ws.idle_ns.store(0, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for_chunks(int begin, int end,
                                     const std::function<void(int, int)>& fn) {
  for_each_chunk(begin, end, [&fn](int b, int e) { fn(b, e); });
}

void ThreadPool::parallel_for(int begin, int end, const std::function<void(int)>& fn) {
  parallel_for_chunks(begin, end, [&](int b, int e) {
    for (int i = b; i < e; ++i) fn(i);
  });
}

}  // namespace canb
