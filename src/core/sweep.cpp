#include "bsr/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "bsr/registry.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/decomposer.hpp"

namespace bsr {

// ---- axis builders ----------------------------------------------------------

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Axis strategy_axis(const std::vector<std::string>& keys) {
  Axis axis{"strategy", {}};
  for (const auto& key : keys) {
    axis.points.push_back({key, [key](RunConfig& c) { c.strategy = key; }});
  }
  return axis;
}

Axis strategy_axis_labeled(
    const std::vector<std::pair<std::string, std::string>>& key_labels) {
  Axis axis{"strategy", {}};
  for (const auto& [key, label] : key_labels) {
    axis.points.push_back({label, [key = key](RunConfig& c) { c.strategy = key; }});
  }
  return axis;
}

Axis factorization_axis(const std::vector<Factorization>& facts) {
  Axis axis{"factorization", {}};
  for (const Factorization f : facts) {
    axis.points.push_back(
        {predict::to_string(f), [f](RunConfig& c) { c.factorization = f; }});
  }
  return axis;
}

Axis size_axis(const std::vector<std::int64_t>& ns, bool retune_block) {
  Axis axis{"n", {}};
  for (const std::int64_t n : ns) {
    axis.points.push_back({std::to_string(n), [n, retune_block](RunConfig& c) {
                             c.n = n;
                             if (retune_block) c.b = 0;
                           }});
  }
  return axis;
}

Axis ratio_axis(const std::vector<double>& rs) {
  Axis axis{"r", {}};
  for (const double r : rs) {
    axis.points.push_back(
        {fmt_double(r), [r](RunConfig& c) { c.reclamation_ratio = r; }});
  }
  return axis;
}

Axis abft_axis(const std::vector<std::string>& policies) {
  Axis axis{"abft", {}};
  for (const auto& p : policies) {
    axis.points.push_back({p, [p](RunConfig& c) { c.abft_policy = p; }});
  }
  return axis;
}

Axis precision_axis(const std::vector<int>& elem_bytes) {
  Axis axis{"precision", {}};
  for (const int bytes : elem_bytes) {
    axis.points.push_back({bytes == 8 ? "double" : "single",
                           [bytes](RunConfig& c) { c.elem_bytes = bytes; }});
  }
  return axis;
}

Axis trial_axis(int trials, std::uint64_t root_seed) {
  Axis axis{"trial", {}};
  for (int t = 0; t < trials; ++t) {
    axis.points.push_back(
        {std::to_string(t), [t, root_seed](RunConfig& c) {
           c.seed = derive_cell_seed(root_seed, static_cast<std::uint64_t>(t));
         }});
  }
  return axis;
}

// ---- SweepRow / SweepResult -------------------------------------------------

double SweepRow::energy_saving() const {
  return baseline ? report->energy_saving_vs(*baseline) : 0.0;
}

double SweepRow::ed2p_reduction() const {
  return baseline ? report->ed2p_reduction_vs(*baseline) : 0.0;
}

double SweepRow::speedup() const {
  return baseline ? report->speedup_vs(*baseline) : 1.0;
}

const SweepRow& SweepResult::at(
    const std::vector<std::pair<std::string, std::string>>& coords) const {
  const SweepRow* found = nullptr;
  for (const SweepRow& row : rows) {
    bool match = true;
    for (const auto& [axis, label] : coords) {
      const auto it = row.coords.find(axis);
      if (it == row.coords.end() || it->second != label) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    if (found != nullptr) {
      throw std::out_of_range("SweepResult::at: coordinates match several rows");
    }
    found = &row;
  }
  if (found == nullptr) {
    std::string what = "SweepResult::at: no row matches";
    for (const auto& [axis, label] : coords) {
      what += ' ' + axis + "=" + label;
    }
    throw std::out_of_range(what);
  }
  return *found;
}

std::vector<const SweepRow*> SweepResult::where(const std::string& axis,
                                                const std::string& label) const {
  std::vector<const SweepRow*> out;
  for (const SweepRow& row : rows) {
    const auto it = row.coords.find(axis);
    if (it != row.coords.end() && it->second == label) out.push_back(&row);
  }
  return out;
}

// ---- Sweep ------------------------------------------------------------------

Sweep::Sweep(RunConfig base) : base_(std::move(base)) {}

Sweep& Sweep::over(Axis axis) {
  axes_.push_back(std::move(axis));
  return *this;
}

Sweep& Sweep::baseline(std::string strategy_key) {
  baseline_strategy_ = std::move(strategy_key);
  return *this;
}

Sweep& Sweep::threads(int n) {
  if (n < 0) {
    throw std::invalid_argument("Sweep::threads: need n >= 0 (got " +
                                std::to_string(n) + ")");
  }
  threads_ = n;
  return *this;
}

namespace {

/// The baseline for a cell: same configuration, baseline strategy substituted
/// (canonicalized, so "BSR"/"org" spellings behave like "bsr"/"original").
/// The BSR-only knobs the baseline does not read reset to their defaults
/// (core::bsr_knob_use), so e.g. all nine r-values of a Pareto scan share one
/// cached Original run.
RunConfig baseline_config(RunConfig cfg, const std::string& strategy_key_raw) {
  cfg.strategy = strategies().canonical(strategy_key_raw);
  const core::BsrKnobUse use = core::bsr_knob_use(cfg.strategy, cfg.devices);
  const RunConfig defaults;
  if (!use.knobs) {
    cfg.reclamation_ratio = defaults.reclamation_ratio;
    cfg.bsr_use_optimized_guardband = defaults.bsr_use_optimized_guardband;
    cfg.bsr_allow_overclocking = defaults.bsr_allow_overclocking;
    cfg.bsr_use_enhanced_predictor = defaults.bsr_use_enhanced_predictor;
  }
  if (!use.fc) cfg.fc_desired = defaults.fc_desired;
  return cfg;
}

}  // namespace

SweepResult Sweep::run() {
  const auto t0 = std::chrono::steady_clock::now();

  // 1. Expand the cartesian product, first axis outermost.
  SweepResult result;
  for (const Axis& axis : axes_) result.axis_names.push_back(axis.name);
  std::size_t cells = 1;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const Axis& axis = axes_[a];
    if (axis.points.empty()) {
      throw std::invalid_argument("Sweep: axis \"" + axis.name +
                                  "\" has no points");
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (axes_[b].name == axis.name) {
        throw std::invalid_argument("Sweep: duplicate axis name \"" +
                                    axis.name + "\"");
      }
    }
    cells *= axis.points.size();
  }
  result.rows.reserve(cells);
  for (std::size_t index = 0; index < cells; ++index) {
    SweepRow row;
    row.index = index;
    row.config = base_;
    std::size_t stride = cells;
    for (const Axis& axis : axes_) {
      stride /= axis.points.size();
      const AxisPoint& point = axis.points[(index / stride) % axis.points.size()];
      row.coords.emplace(axis.name, point.label);
      point.apply(row.config);
    }
    row.config.validate();
    result.rows.push_back(std::move(row));
  }

  // 2. Collect the unique configurations to execute: every cell plus (when
  // requested) every cell's baseline, deduplicated by fingerprint against
  // both this grid and the persistent cache.
  struct Job {
    RunConfig config;
    std::shared_ptr<const RunReport> report;
    std::exception_ptr error;
  };
  std::vector<Job> jobs;
  jobs.reserve(result.rows.size() + (baseline_strategy_ ? result.rows.size() : 0));
  std::map<std::string, std::size_t> job_index;  // fingerprint -> jobs slot
  const auto request = [&](const RunConfig& cfg) -> std::string {
    ++result.requested_runs;
    std::string fp = cfg.fingerprint();
    if (cache_.count(fp) == 0 &&
        job_index.try_emplace(fp, jobs.size()).second) {
      jobs.push_back(Job{cfg, nullptr, nullptr});
    }
    return fp;
  };
  std::vector<std::string> cell_fp;
  std::vector<std::string> baseline_fp;
  cell_fp.reserve(result.rows.size());
  if (baseline_strategy_) baseline_fp.reserve(result.rows.size());
  for (const SweepRow& row : result.rows) {
    cell_fp.push_back(request(row.config));
    if (baseline_strategy_) {
      baseline_fp.push_back(
          request(baseline_config(row.config, *baseline_strategy_)));
    }
  }

  // 3. Resolve each distinct platform once; the Decomposer is shared by all
  // jobs on that platform (Decomposer::run is const and stateless).
  std::map<std::string, core::Decomposer> decomposers;
  for (const Job& job : jobs) {
    if (decomposers.count(job.config.platform) == 0) {
      decomposers.emplace(job.config.platform,
                          core::Decomposer(make_platform(job.config.platform)));
    }
  }

  // 4. Execute. Job order, and therefore every result, is independent of the
  // worker that picks a job up; exceptions are captured per job and the first
  // (by job order) rethrown after the pool drains.
  const auto execute = [&](std::size_t i) {
    Job& job = jobs[i];
    try {
      job.report = std::make_shared<const RunReport>(
          decomposers.at(job.config.platform).run(job.config));
    } catch (...) {
      job.error = std::current_exception();
    }
  };
  const bool shared_pool_useless =
      threads_ == 0 && ThreadPool::shared().size() <= 1;
  if (threads_ == 1 || jobs.size() <= 1 || shared_pool_useless) {
    for (std::size_t i = 0; i < jobs.size(); ++i) execute(i);
  } else if (threads_ == 0) {
    ThreadPool::shared().parallel_for(jobs.size(), execute);
  } else {
    ThreadPool pool(static_cast<std::size_t>(threads_));
    pool.parallel_for(jobs.size(), execute);
  }
  for (const Job& job : jobs) {
    if (job.error) std::rethrow_exception(job.error);
  }

  // 5. Publish to the persistent cache and assemble rows in expansion order.
  result.unique_runs = jobs.size();
  result.cache_hits = result.requested_runs - result.unique_runs;
  {
    // Mirror the grid's cache accounting into the process-wide metrics
    // registry (bsr/observability.hpp) so long-lived hosts (the serve
    // daemon, campaign drivers) expose cumulative sweep efficiency.
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& requested = reg.counter(
        "bsr_sweep_requested_runs_total", "cells requested across all sweeps");
    static common::Counter& unique = reg.counter(
        "bsr_sweep_unique_runs_total", "simulator executions across all sweeps");
    static common::Counter& hits = reg.counter(
        "bsr_sweep_cache_hits_total",
        "cells served from the sweep result cache");
    requested.inc(result.requested_runs);
    unique.inc(result.unique_runs);
    hits.inc(result.cache_hits);
  }
  for (auto& [fp, slot] : job_index) {
    cache_.emplace(fp, std::move(jobs[slot].report));
  }
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    result.rows[i].report = cache_.at(cell_fp[i]);
    if (baseline_strategy_) {
      result.rows[i].baseline = cache_.at(baseline_fp[i]);
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

// ---- emit -------------------------------------------------------------------

std::vector<MetricColumn> standard_columns(const SweepResult& result) {
  std::vector<MetricColumn> cols;
  for (const std::string& axis : result.axis_names) {
    cols.push_back({axis, [axis](const SweepRow& row) {
                      return row.coords.at(axis);
                    }});
  }
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  cols.push_back({"time_s", [num](const SweepRow& r) {
                    return num(r.report->seconds());
                  }});
  cols.push_back({"gflops", [num](const SweepRow& r) {
                    return num(r.report->gflops());
                  }});
  cols.push_back({"energy_j", [num](const SweepRow& r) {
                    return num(r.report->total_energy_j());
                  }});
  cols.push_back({"ed2p", [num](const SweepRow& r) {
                    return num(r.report->ed2p());
                  }});
  const bool with_baseline =
      !result.rows.empty() && result.rows.front().baseline != nullptr;
  if (with_baseline) {
    cols.push_back({"saving", [num](const SweepRow& r) {
                      return num(r.energy_saving());
                    }});
    cols.push_back({"ed2p_cut", [num](const SweepRow& r) {
                      return num(r.ed2p_reduction());
                    }});
    cols.push_back({"speedup", [num](const SweepRow& r) {
                      return num(r.speedup());
                    }});
  }
  return cols;
}

void emit(const SweepResult& result, const std::vector<MetricColumn>& columns,
          ResultSink& sink) {
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (const MetricColumn& c : columns) names.push_back(c.name);
  sink.begin(names);
  for (const SweepRow& row : result.rows) {
    std::vector<std::string> values;
    values.reserve(columns.size());
    for (const MetricColumn& c : columns) values.push_back(c.value(row));
    sink.add_row(values);
  }
  sink.end();
}

void emit(const SweepResult& result, ResultSink& sink) {
  emit(result, standard_columns(result), sink);
}

}  // namespace bsr
