// Work-stealing thread pool for fanning independent analysis tasks (one
// circuit x algorithm cell of the benchmark matrix, batched STA queries,
// ...) across cores.  Each worker owns a deque: it pushes and pops at the
// back, and steals from the front of a sibling when its own deque drains,
// so large tasks submitted early migrate to idle workers without a global
// queue becoming the bottleneck.
//
// Determinism contract: the pool schedules *when* a task runs, never what
// it computes — tasks must not share mutable state and must derive any
// randomness from seeds fixed at submission time.  Under that contract a
// task produces bit-identical results on 1 thread and on N.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvs {

/// A consistent snapshot of the pool's load counters, taken under the pool
/// mutex so `pending <= peak_pending` always holds.
struct ThreadPoolStats {
  int threads = 0;
  int pending = 0;                  // queued + running right now
  int peak_pending = 0;             // high-water mark of `pending`
  std::uint64_t tasks_executed = 0; // tasks finished since construction
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = std::thread::hardware_concurrency,
  /// floored at 1).
  explicit ThreadPool(int num_threads = 0);
  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks submitted but not yet finished (queued + running) — the
  /// pool-depth signal behind the service's `stats` report.
  int pending() const;

  /// Load counters (current depth, peak depth, total tasks retired).
  ThreadPoolStats stats() const;

  /// Enqueues a task.  Safe to call from any thread, including from inside
  /// a running task (the task lands on the calling worker's own deque).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has finished.
  void wait_idle();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for those n
  /// iterations only — other tasks on the pool (a daemon's unrelated
  /// jobs) may still be running when it returns.  Iterations are claimed
  /// dynamically, one at a time, so uneven task sizes balance.  The first
  /// exception an iteration throws is rethrown here once every iteration
  /// has finished.  Must not be called from a pool worker.
  void parallel_for(int n, const std::function<void(int)>& fn);

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;  // guarded by ThreadPool mutex
    std::thread thread;
  };

  /// Pops from the calling worker's back or steals from a sibling's
  /// front.  Returns false when the pool is stopping and no work remains.
  bool next_task(int self, std::function<void()>* out);
  void worker_loop(int self);

  std::vector<Worker> workers_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  int pending_ = 0;       // submitted but not yet finished
  int peak_pending_ = 0;  // high-water mark of pending_
  std::uint64_t tasks_executed_ = 0;  // tasks retired by worker_loop
  int next_victim_ = 0;   // round-robin submission cursor
  bool stopping_ = false;
};

}  // namespace dvs
