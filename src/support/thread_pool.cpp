#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/contracts.hpp"

namespace dvs {

namespace {

thread_local int tls_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_ = std::vector<Worker>(num_threads);
  for (int i = 0; i < num_threads; ++i)
    workers_[i].thread = std::thread([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (Worker& w : workers_) w.thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  DVS_EXPECTS(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A task submitted from inside a worker stays local (back of own
    // deque: depth-first, cache-warm); external submissions round-robin.
    const int target = tls_worker_index >= 0
                           ? tls_worker_index
                           : (next_victim_++ % num_threads());
    workers_[target].deque.push_back(std::move(task));
    ++pending_;
    if (pending_ > peak_pending_) peak_pending_ = pending_;
  }
  work_available_.notify_one();
}

bool ThreadPool::next_task(int self, std::function<void()>* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!workers_[self].deque.empty()) {
      *out = std::move(workers_[self].deque.back());
      workers_[self].deque.pop_back();
      return true;
    }
    for (int k = 1; k < num_threads(); ++k) {
      const int victim = (self + k) % num_threads();
      if (!workers_[victim].deque.empty()) {
        *out = std::move(workers_[victim].deque.front());
        workers_[victim].deque.pop_front();
        return true;
      }
    }
    if (stopping_) return false;
    work_available_.wait(lock);
  }
}

void ThreadPool::worker_loop(int self) {
  tls_worker_index = self;
  std::function<void()> task;
  while (next_task(self, &task)) {
    task();
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      ++tasks_executed_;
      DVS_ASSERT(pending_ >= 0);
      if (pending_ == 0) idle_.notify_all();
    }
  }
  tls_worker_index = -1;
}

void ThreadPool::wait_idle() {
  // Waiting from inside a task would deadlock: the waiter's own task can
  // never retire while it blocks here.
  DVS_EXPECTS(tls_worker_index == -1);
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

int ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ThreadPoolStats out;
  out.threads = num_threads();
  out.pending = pending_;
  out.peak_pending = peak_pending_;
  out.tasks_executed = tasks_executed_;
  return out;
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  // Same deadlock as wait_idle: the caller's own iterations could be
  // queued behind it.
  DVS_EXPECTS(tls_worker_index == -1);
  if (n <= 0) return;
  // This call's own bookkeeping, so it waits for its iterations only —
  // never for unrelated tasks sharing the pool.  One claimed index per
  // grab keeps load balanced under wildly uneven per-iteration cost (the
  // benchmark matrix spans 3 orders of magnitude).
  struct Loop {
    std::atomic<int> next{0};
    std::mutex mutex;
    std::condition_variable done;
    int finished = 0;           // guarded by mutex
    std::exception_ptr error;  // guarded by mutex: the first failure
  };
  auto loop = std::make_shared<Loop>();
  const int spawn = std::min(n, num_threads());
  for (int t = 0; t < spawn; ++t) {
    submit([loop, n, &fn] {
      for (int i = loop->next.fetch_add(1); i < n;
           i = loop->next.fetch_add(1)) {
        std::exception_ptr error;
        try {
          fn(i);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(loop->mutex);
        if (error && !loop->error) loop->error = error;
        if (++loop->finished == n) loop->done.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->done.wait(lock, [&] { return loop->finished == n; });
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace dvs
