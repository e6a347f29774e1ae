#include "cluster/event_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bsr::cluster {
namespace {

TEST(EventEngine, PastSchedulingClampsToNow) {
  BasicEventEngine<int> e;
  std::vector<int> order;
  e.schedule_at(SimTime(10), 1);
  e.schedule_at(SimTime(10), 2);
  const SimTime end = e.run([&](int v) {
    order.push_back(v);
    // "In the past": fires immediately after already queued time-10 events.
    if (v == 1) e.schedule_at(SimTime(3), 3);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(end, SimTime(10));  // clock never runs backwards
}

TEST(EventEngine, NowAdvancesMonotonically) {
  BasicEventEngine<int> e;
  for (int i = 0; i < 50; ++i) e.schedule_at(SimTime(i % 7), i);
  SimTime last = SimTime::zero();
  e.run([&](int) {
    EXPECT_GE(e.now(), last);
    last = e.now();
  });
}

// The flat-payload engine the cluster simulator runs on: events are POD
// records in preallocated storage, dispatched by a functor, and the (time,
// sequence) tie-break contract must hold exactly — the sweep's bitwise
// thread-count invariance rests on it.
TEST(BasicEventEngine, PodPayloadEqualTimesFireInScheduleOrder) {
  BasicEventEngine<int> e;
  e.reserve(64);
  std::vector<int> order;
  // Interleave two equal-time groups with distinct times: within each time,
  // schedule order must be preserved regardless of heap internals.
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(SimTime(20), 100 + i);
    e.schedule_at(SimTime(10), i);
  }
  const SimTime end = e.run([&order](int v) { order.push_back(v); });
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
    EXPECT_EQ(order[static_cast<size_t>(8 + i)], 100 + i);
  }
  EXPECT_EQ(end, SimTime(20));
  EXPECT_EQ(e.processed(), 16u);
}

TEST(BasicEventEngine, ReserveDoesNotPerturbOrdering) {
  // Same schedule with and without a pre-sized heap: identical firing order.
  auto drive = [](std::size_t reserve) {
    BasicEventEngine<int> e;
    if (reserve > 0) e.reserve(reserve);
    for (int i = 0; i < 32; ++i) {
      e.schedule_at(SimTime((i * 13) % 5), i);
    }
    std::vector<int> order;
    e.run([&order](int v) { order.push_back(v); });
    return order;
  };
  EXPECT_EQ(drive(0), drive(1024));
}

TEST(BasicEventEngine, HandlersScheduleFurtherPodEvents) {
  BasicEventEngine<int> e;
  std::vector<int> order;
  e.schedule_at(SimTime(10), 1);
  const SimTime end = e.run([&](int v) {
    order.push_back(v);
    if (v < 3) e.schedule_after(SimTime(5), v + 1);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(end, SimTime(20));
}

TEST(BasicEventEngine, StressManyEqualTimeGroups) {
  // Deterministic scramble of 1000 events into 10 time buckets; within each
  // bucket the firing order must equal the schedule order.
  BasicEventEngine<int> e;
  std::vector<std::vector<int>> expected(10);
  std::uint64_t s = 7;
  for (int i = 0; i < 1000; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const int bucket = static_cast<int>(s >> 61);  // 0..7
    e.schedule_at(SimTime(bucket), i);
    expected[static_cast<size_t>(bucket)].push_back(i);
  }
  std::vector<std::vector<int>> fired(10);
  e.run([&](int v) { fired[static_cast<size_t>(e.now().ns())].push_back(v); });
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace bsr::cluster
