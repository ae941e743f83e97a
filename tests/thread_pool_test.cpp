#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"

namespace dvs {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  for (int i = 0; i < 100; ++i)
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  pool.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversTheRange) {
  ThreadPool pool(3);
  std::vector<int> out(1000, 0);
  pool.parallel_for(1000, [&](int i) { out[i] = i; });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPoolTest, ParallelForBalancesUnevenWork) {
  // One huge iteration plus many tiny ones: with one-at-a-time claiming
  // the tiny ones drain on the other workers while the big one runs.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(64, [&](int i) {
    long local = 0;
    const int spins = i == 0 ? 200000 : 100;
    for (int k = 0; k < spins; ++k) local += k % 7;
    total.fetch_add(local == -1 ? 0 : 1);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnIterations) {
  // A daemon shares its pool between unrelated jobs: a parallel_for must
  // return once its own iterations are done, even while another task
  // on the same pool is still blocked.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.submit([gate] { gate.wait(); });
  std::atomic<int> sum{0};
  std::future<void> loop = std::async(std::launch::async, [&] {
    pool.parallel_for(100, [&](int i) { sum.fetch_add(i); });
  });
  const bool returned =
      loop.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();  // unblock the pool either way, so the test ends
  loop.get();
  EXPECT_TRUE(returned) << "parallel_for waited for an unrelated task";
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterEveryIteration) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](int i) {
                                   ran.fetch_add(1);
                                   if (i == 7) throw std::runtime_error("7");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      pool.submit([&count] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();  // waits for the children too
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, StatsTrackPeakDepthAndTotalTasks) {
  ThreadPool pool(2);
  // Hold both workers hostage so further submissions stack up and the
  // peak is deterministic.
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i)
    pool.submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  for (int i = 0; i < 6; ++i) pool.submit([] {});
  const ThreadPoolStats loaded = pool.stats();
  EXPECT_EQ(loaded.threads, 2);
  EXPECT_EQ(loaded.pending, 8);
  EXPECT_GE(loaded.peak_pending, 8);
  release.store(true);
  pool.wait_idle();
  const ThreadPoolStats drained = pool.stats();
  EXPECT_EQ(drained.pending, 0);
  EXPECT_GE(drained.peak_pending, 8);  // high-water mark survives drain
  EXPECT_EQ(drained.tasks_executed, 8u);
}

TEST(ThreadPoolTest, MixSeedSeparatesStreams) {
  // Distinct streams from one seed, stable across calls.
  EXPECT_EQ(mix_seed(42, 0), mix_seed(42, 0));
  EXPECT_NE(mix_seed(42, 0), mix_seed(42, 1));
  EXPECT_NE(mix_seed(42, 0), mix_seed(43, 0));
}

}  // namespace
}  // namespace dvs
