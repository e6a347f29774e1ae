#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <stdexcept>

#include "common/json.hpp"

namespace bsr::common {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_'))
    return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
}

// One exposition number: integers render without a fraction part, everything
// else through the shortest-round-trip writer shared with the JSON layer.
std::string format_value(double v) { return json_double(v); }

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::logic_error("Histogram: bucket bounds must be ascending");
  if (std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::logic_error("Histogram: duplicate bucket bound");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double next = std::bit_cast<double>(bits) + v;
    if (sum_bits_.compare_exchange_weak(bits, std::bit_cast<std::uint64_t>(next),
                                        std::memory_order_relaxed))
      return;
  }
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<double> Histogram::default_latency_buckets_s() {
  return {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
          100.0};
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, Kind kind, const std::string& help) {
  if (!valid_metric_name(name))
    throw std::logic_error("MetricsRegistry: invalid metric name '" + name +
                           "'");
  for (auto& e : entries_) {
    if (e->name != name) continue;
    if (e->kind != kind)
      throw std::logic_error("MetricsRegistry: '" + name +
                             "' re-registered with a different kind");
    return *e;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = kind;
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, Kind::kCounter, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, Kind::kGauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, Kind::kHistogram, help);
  if (!e.histogram)
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  return *e.histogram;
}

std::string MetricsRegistry::exposition() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& e : entries_) {
    out += "# HELP " + e->name + " " + e->help + "\n";
    switch (e->kind) {
      case Kind::kCounter:
        out += "# TYPE " + e->name + " counter\n";
        out += e->name + " " + std::to_string(e->counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " " + format_value(e->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e->histogram;
        out += "# TYPE " + e->name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += h.bucket(i);
          out += e->name + "_bucket{le=\"" +
                 format_value(h.upper_bounds()[i]) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += h.bucket(h.upper_bounds().size());
        out += e->name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               "\n";
        out += e->name + "_sum " + format_value(h.sum()) + "\n";
        out += e->name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace bsr::common
