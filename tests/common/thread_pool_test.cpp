#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace bsr {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelRangesPartitionIsExact) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_ranges(
      1237, [&](std::size_t b, std::size_t e) { total.fetch_add(e - b); });
  EXPECT_EQ(total.load(), 1237u);
}

TEST(ThreadPool, NestedCallsFallBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Re-entrant use from a worker must not deadlock.
    pool.parallel_for(10, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

// The calling thread participates in its own batch and is not a pool worker,
// so a nested call from it runs in parallel and takes over the pool's batch
// slot. The outer call must still wait for its own chunks, which the workers
// are running (and sleeping in) when the caller's share is done.
TEST(ThreadPool, NestedCallFromCallerWaitsForOuterBatch) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    constexpr std::size_t kOuter = 16;
    std::atomic<std::size_t> outer_done{0};
    std::atomic<int> inner_total{0};
    pool.parallel_for(kOuter, [&](std::size_t) {
      pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      outer_done.fetch_add(1);
    });
    ASSERT_EQ(outer_done.load(), kOuter) << "round " << round;
    ASSERT_EQ(inner_total.load(), static_cast<int>(8 * kOuter));
  }
}

// Two threads outside the pool share it: each call replaces the other's
// batch in the slot, and each must still return only after all its own
// indices ran.
TEST(ThreadPool, ConcurrentExternalCallersEachWaitForTheirBatch) {
  ThreadPool pool(4);
  std::atomic<int> early_returns{0};
  const auto caller = [&] {
    for (int round = 0; round < 40; ++round) {
      constexpr std::size_t kCount = 32;
      std::vector<std::atomic<int>> hits(kCount);
      pool.parallel_for(kCount, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        hits[i].fetch_add(1);
      });
      for (const auto& h : hits) {
        if (h.load() != 1) early_returns.fetch_add(1);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(early_returns.load(), 0);
}

TEST(ThreadPool, SumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<long> values(100000);
  std::iota(values.begin(), values.end(), 0L);
  std::atomic<long> sum{0};
  pool.parallel_ranges(values.size(), [&](std::size_t b, std::size_t e) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += values[i];
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), std::accumulate(values.begin(), values.end(), 0L));
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPool, ManySmallBatchesDoNotHang) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(7, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 7);
  }
}

}  // namespace
}  // namespace bsr
