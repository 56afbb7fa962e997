#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace bcfl {
namespace {

TEST(ThreadPoolTest, SubmitReturnsFutureResult) {
  ThreadPool pool(4);
  auto future = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenForZero) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  auto f = pool.Submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(8);
  const size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) { counts[i]++; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
  pool.ParallelFor(0, [&](size_t) { ran = true; }, /*grain=*/64);
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForExplicitGrainVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  // Grain that doesn't divide the count: the last chunk is a remainder.
  const size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) { counts[i]++; }, /*grain=*/7);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForGrainLargerThanCountRunsInline) {
  ThreadPool pool(4);
  const size_t kN = 10;
  std::vector<int> counts(kN, 0);  // Unsynchronised: single chunk, inline.
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{true};
  pool.ParallelFor(
      kN,
      [&](size_t i) {
        counts[i]++;
        if (std::this_thread::get_id() != caller) on_caller = false;
      },
      /*grain=*/64);
  EXPECT_TRUE(on_caller.load());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i], 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnTheWorker) {
  // Every worker is busy in the outer loop; an inner call that enqueued
  // would wait on chunks no worker can pick up.
  ThreadPool pool(2);
  const size_t kOuter = 4, kInner = 256;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  std::atomic<bool> inner_on_outer_thread{true};
  pool.ParallelFor(
      kOuter,
      [&](size_t o) {
        const std::thread::id outer = std::this_thread::get_id();
        pool.ParallelFor(kInner, [&](size_t i) {
          counts[o * kInner + i]++;
          if (std::this_thread::get_id() != outer) {
            inner_on_outer_thread = false;
          }
        });
      },
      /*grain=*/1);
  EXPECT_TRUE(inner_on_outer_thread.load());
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelForThrowingTaskPropagatesAndFinishesRest) {
  ThreadPool pool(4);
  const size_t kN = 256;
  std::vector<std::atomic<int>> visited(kN);
  auto body = [&](size_t i) {
    visited[i]++;
    if (i == 10) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.ParallelFor(kN, body, /*grain=*/1), std::runtime_error);
  // Grain 1: every other index ran despite the failing one.
  for (size_t i = 0; i < kN; ++i) {
    if (i != 10) {
      EXPECT_EQ(visited[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForManyIndicesFewChunks) {
  // 2^16 indices must not enqueue 2^16 closures; with auto grain the
  // whole sweep completes promptly and visits everything exactly once.
  ThreadPool pool(4);
  const size_t kN = 1 << 16;
  std::atomic<size_t> sum{0};
  pool.ParallelFor(kN, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), (kN - 1) * kN / 2);
}

TEST(ThreadPoolTest, ManySubmissionsAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<size_t>> futures;
  for (size_t i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.Submit([&done] { done++; return 0; });
    }
  }  // Destructor joins.
  EXPECT_EQ(done.load(), 100);
}

}  // namespace
}  // namespace bcfl
