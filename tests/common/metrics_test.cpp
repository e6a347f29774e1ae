// The unified metrics registry: instrument semantics (counter, gauge,
// histogram bucketing), registration rules (get-or-create, kind collisions
// throw), and the deterministic Prometheus-style exposition.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace bsr::common {
namespace {

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("bsr_test_events_total", "events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = reg.gauge("bsr_test_depth", "depth");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(-1.0);  // gauges go down
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, GetOrCreateReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("bsr_test_total", "first");
  Counter& b = reg.counter("bsr_test_total", "ignored on re-request");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Metrics, KindCollisionAndBadNamesThrow) {
  MetricsRegistry reg;
  reg.counter("bsr_test_collide", "a counter");
  EXPECT_THROW(reg.gauge("bsr_test_collide", "now a gauge"),
               std::logic_error);
  EXPECT_THROW(reg.histogram("bsr_test_collide", "now a histogram", {1.0}),
               std::logic_error);
  EXPECT_THROW(reg.counter("0starts_with_digit", ""), std::logic_error);
  EXPECT_THROW(reg.counter("has-dash", ""), std::logic_error);
  EXPECT_THROW(reg.counter("", ""), std::logic_error);
}

TEST(Metrics, HistogramBucketsAreUpperBoundsInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0: le="1" includes the bound itself
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(9.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
}

TEST(Metrics, HistogramEdgeCases) {
  // Fewer observations than buckets (a daemon scraped after 2 requests with
  // 13 latency buckets) leaves most buckets at exactly zero — and the
  // cumulative exposition must stay monotone with the +Inf bucket == count.
  Histogram sparse(Histogram::default_latency_buckets_s());
  sparse.observe(0.002);
  sparse.observe(250.0);  // beyond the last bound -> +Inf
  EXPECT_EQ(sparse.count(), 2u);
  EXPECT_EQ(sparse.bucket(sparse.upper_bounds().size()), 1u);

  // Empty histogram: count 0, sum 0, every bucket 0 — no poison values.
  Histogram empty({1.0});
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.sum(), 0.0);

  // Negative observations land in the first finite bucket (le upper bounds).
  Histogram neg({0.0, 1.0});
  neg.observe(-3.0);
  EXPECT_EQ(neg.bucket(0), 1u);

  // Unsorted or duplicated bounds are construction bugs.
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::logic_error);
}

TEST(Metrics, HistogramConcurrentObserveLosesNothing) {
  Histogram h({0.5});
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kEach = 10000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kEach; ++i) h.observe(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kEach));
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kEach));
  EXPECT_EQ(h.bucket(1), static_cast<std::uint64_t>(kThreads * kEach));
}

TEST(Metrics, ExpositionIsDeterministicAndPrometheusShaped) {
  MetricsRegistry reg;
  reg.counter("bsr_test_requests_total", "requests served").inc(3);
  reg.gauge("bsr_test_queue", "queue depth").set(2.0);
  Histogram& h = reg.histogram("bsr_test_latency_seconds", "latency",
                               {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(30.0);

  const std::string expected =
      "# HELP bsr_test_requests_total requests served\n"
      "# TYPE bsr_test_requests_total counter\n"
      "bsr_test_requests_total 3\n"
      "# HELP bsr_test_queue queue depth\n"
      "# TYPE bsr_test_queue gauge\n"
      "bsr_test_queue 2\n"
      "# HELP bsr_test_latency_seconds latency\n"
      "# TYPE bsr_test_latency_seconds histogram\n"
      "bsr_test_latency_seconds_bucket{le=\"0.1\"} 1\n"
      "bsr_test_latency_seconds_bucket{le=\"1\"} 2\n"
      "bsr_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "bsr_test_latency_seconds_sum 30.55\n"
      "bsr_test_latency_seconds_count 3\n";
  EXPECT_EQ(reg.exposition(), expected);
  // Identical state renders byte-identically on every snapshot.
  EXPECT_EQ(reg.exposition(), expected);
}

TEST(Metrics, GlobalRegistryIsOneInstance) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
  Counter& c =
      MetricsRegistry::global().counter("bsr_test_global_total", "global");
  c.inc();
  EXPECT_GE(c.value(), 1u);
}

}  // namespace
}  // namespace bsr::common
