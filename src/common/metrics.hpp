// Unified metrics registry: named counters, gauges, and histograms with a
// Prometheus-style text exposition writer.
//
// Every long-lived stat in the repo used to live in its own ad-hoc struct
// (`ServeStats`, the Sweep cache counters, `StoreStats`); this registry gives
// them one home with one naming scheme (`bsr_<subsystem>_<what>[_<unit>]`,
// see docs/OBSERVABILITY.md) and one machine-readable output format, so the
// serve daemon's `metrics` endpoint and any future scraper see a single
// coherent surface.
//
// Design constraints, in order:
//
//   * **Never on the simulation axis.** Metrics measure the *machinery*
//     (request latency, cache traffic, store corruption) on the operational
//     wall clock. Nothing here touches SimTime, RNG streams, or RunConfig —
//     registering or updating a metric cannot perturb a run's bytes.
//   * **Cheap, lock-free updates.** Counter/Gauge updates are single relaxed
//     atomics; Histogram::observe is a bucket scan plus two atomics. Safe to
//     call from every server worker concurrently.
//   * **Deterministic exposition.** Metrics render in registration order and
//     values format through the same shortest-round-trip double writer as
//     the JSON layer, so two snapshots of identical state are byte-identical
//     (tests diff them directly).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bsr::common {

/// Monotonically increasing counter (events, requests, faults, bytes).
/// Updates are relaxed atomics: totals are exact, cross-counter snapshots
/// are only as consistent as the caller's own synchronization.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, cache entries, config).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram (request latency, run cost). Buckets are upper
/// bounds in ascending order; an implicit +Inf bucket catches the rest.
/// Observation is lock-free: one linear bucket scan, one CAS loop for the
/// running sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Non-cumulative count of observations in bucket `i`
  /// (`i == upper_bounds().size()` is the +Inf bucket).
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Default latency buckets: 100us .. ~100s in half-decade steps. Wide on
  /// purpose — covers both microsecond cache hits and multi-second cluster
  /// executions with one shared shape.
  static std::vector<double> default_latency_buckets_s();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // bit_cast'd double, CAS-accumulated
};

/// Get-or-create registry of named metrics. Instances are owned by the
/// registry and live until it is destroyed, so call sites can cache the
/// returned reference once and update it lock-free forever after.
///
/// Names must match `[a-zA-Z_][a-zA-Z0-9_]*`; re-requesting an existing name
/// with the same kind returns the same instance, with a different kind
/// throws `std::logic_error` (a name collision is a bug, not a runtime
/// condition).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds);

  /// Render every registered metric as Prometheus text exposition format
  /// (`# HELP` / `# TYPE` comments, `_bucket`/`_sum`/`_count` histogram
  /// series), in registration order.
  std::string exposition() const;

  /// Process-wide registry: the serve daemon, sweep caches, and store all
  /// meet here. Tests build private instances instead.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, Kind kind,
                        const std::string& help);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

}  // namespace bsr::common
