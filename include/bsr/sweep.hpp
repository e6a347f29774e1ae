// bsr/sweep.hpp — grid expansion, parallel execution, and baseline caching.
//
// The paper's headline figures are grids of runs (strategy x factorization x
// n x r), so grids are the API's default execution model: declare a base
// RunConfig plus axes, and Sweep expands the cartesian product, runs the
// unique configurations on the process-wide thread pool, and hands back rows
// in deterministic expansion order. Two properties the benches rely on:
//
//  * Result cache. Runs are keyed by RunConfig::fingerprint(); a config
//    requested twice (e.g. the Original baseline shared by every comparison
//    row, or an Original cell that is also the baseline) executes exactly
//    once. The cache persists across run() calls on the same Sweep.
//  * Determinism. A cell's seed is part of its config: it is whatever the
//    base config and axis mutators set (trial_axis derives per-trial seeds
//    from (root seed, trial index)) and never depends on which worker runs
//    the cell, so an N-thread sweep is bitwise identical to the same sweep
//    on one thread, rows included, in the same order. Note the flip side:
//    two cells with identical configs (e.g. a repetition axis that does not
//    touch the seed) are ONE cached run, not independent noisy trials —
//    repeat through trial_axis.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bsr/result_sink.hpp"
#include "bsr/run_config.hpp"
#include "core/report.hpp"

namespace bsr {

/// Re-exported per-run result (time, energy, ED2P, ABFT stats, residual).
using core::RunReport;

/// One point on an axis: a display label plus the config mutation it applies.
struct AxisPoint {
  std::string label;                      ///< coordinate label in SweepRow
  std::function<void(RunConfig&)> apply;  ///< mutation this point applies
};

/// A named dimension of the grid. Axes are expanded in the order they are
/// added to the Sweep, first axis outermost.
struct Axis {
  std::string name;               ///< axis (column) name, unique per sweep
  std::vector<AxisPoint> points;  ///< the axis's values, in display order
};

// Built-in axis builders for the common grid dimensions. Anything else is a
// one-liner with a custom Axis{name, {AxisPoint{label, mutator}, ...}}.

/// Axis over strategy registry keys (labels = the keys as given).
Axis strategy_axis(const std::vector<std::string>& keys);
/// Same, with explicit display labels: {{"original", "Org"}, ...}. (Not an
/// overload of strategy_axis — brace-init lists of string literals make the
/// two signatures ambiguous.)
Axis strategy_axis_labeled(
    const std::vector<std::pair<std::string, std::string>>& key_labels);
/// Axis over factorizations (labels "Cholesky" / "LU" / "QR").
Axis factorization_axis(const std::vector<Factorization>& facts);
/// Sets n per point; also re-tunes b (b = 0) unless retune_block is false.
Axis size_axis(const std::vector<std::int64_t>& ns, bool retune_block = true);
/// Axis over BSR reclamation ratios r.
Axis ratio_axis(const std::vector<double>& rs);
/// Axis over ABFT policy registry keys.
Axis abft_axis(const std::vector<std::string>& policies);
/// Axis over element widths (8 = "double", 4 = "single").
Axis precision_axis(const std::vector<int>& elem_bytes);
/// `trials` points labelled "0".."trials-1"; point t sets
/// seed = derive_cell_seed(root_seed, t) (per-cell, thread-count independent).
Axis trial_axis(int trials, std::uint64_t root_seed);

/// One grid cell after execution. `report` is shared with every other row
/// that requested the same fingerprint; `baseline` is null unless
/// Sweep::baseline() was set.
struct SweepRow {
  std::size_t index = 0;  ///< position in expansion order
  std::map<std::string, std::string> coords;  ///< axis name -> point label
  RunConfig config;                         ///< the cell's full configuration
  std::shared_ptr<const RunReport> report;  ///< the cell's executed result
  std::shared_ptr<const RunReport> baseline;  ///< baseline result, or null

  /// Energy saved vs the baseline (0 when no baseline was requested).
  [[nodiscard]] double energy_saving() const;
  /// ED2P reduction vs the baseline (0 when no baseline was requested).
  [[nodiscard]] double ed2p_reduction() const;
  /// Speedup vs the baseline (1.0 when no baseline was requested).
  [[nodiscard]] double speedup() const;
};

/// A finished grid: rows in expansion order plus execution statistics.
class SweepResult {
 public:
  std::vector<std::string> axis_names;  ///< axis names, outermost first
  std::vector<SweepRow> rows;  ///< expansion order, invariant to thread count
  std::size_t requested_runs = 0;  ///< cells + baselines, with multiplicity
  std::size_t unique_runs = 0;     ///< configs actually executed this run()
  std::size_t cache_hits = 0;      ///< requested_runs - unique_runs
  double wall_seconds = 0.0;       ///< wall-clock time of this run() call

  /// Executed (unique) cells per wall-clock second of this run() — the sweep
  /// throughput metric the BENCH_kernels.json trajectory and the CI perf
  /// gate track. 0 when nothing executed or the clock read as zero.
  [[nodiscard]] double cells_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(unique_runs) / wall_seconds
               : 0.0;
  }

  /// The unique row matching every given (axis, label) pair; throws
  /// std::out_of_range (listing the coords) when none or several match.
  [[nodiscard]] const SweepRow& at(
      const std::vector<std::pair<std::string, std::string>>& coords) const;
  /// All rows whose `axis` coordinate equals `label`, in expansion order.
  [[nodiscard]] std::vector<const SweepRow*> where(
      const std::string& axis, const std::string& label) const;
};

/// Declarative grid runner: a base RunConfig plus axes, executed in parallel
/// with fingerprint-keyed caching (see the file comment for the guarantees).
class Sweep {
 public:
  /// Every cell starts from `base`; axis points mutate copies of it.
  explicit Sweep(RunConfig base = {});

  /// Appends a grid dimension (expanded outermost-first, chainable).
  Sweep& over(Axis axis);
  /// Attach to every cell a baseline run of the same configuration with
  /// `strategy_key` substituted (BSR-specific knobs reset to defaults unless
  /// the baseline is BSR itself). Baselines go through the result cache, so
  /// all cells of one comparison group share a single baseline execution.
  Sweep& baseline(std::string strategy_key);
  /// 1 = serial on the calling thread; 0 (default) = the process-wide
  /// ThreadPool::shared(); k > 1 = a dedicated pool of k workers.
  Sweep& threads(int n);

  /// Expands the grid, validates every cell, executes all configurations not
  /// already cached, and returns rows in expansion order. Worker exceptions
  /// are captured and rethrown (first failing cell wins) after the pool
  /// drains. Reusable: a second run() resolves repeats from the cache.
  [[nodiscard]] SweepResult run();

  /// Number of distinct fingerprints in the persistent result cache.
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

 private:
  RunConfig base_;
  std::vector<Axis> axes_;
  std::optional<std::string> baseline_strategy_;
  int threads_ = 0;
  std::map<std::string, std::shared_ptr<const RunReport>> cache_;
};

/// One output column: name + extractor over a finished row.
struct MetricColumn {
  std::string name;                                  ///< column header
  std::function<std::string(const SweepRow&)> value;  ///< cell renderer
};

/// The default column set: one column per axis, then time_s / gflops /
/// energy_j / ed2p, and — when the sweep carried a baseline — saving,
/// ed2p_cut, and speedup relative to it.
std::vector<MetricColumn> standard_columns(const SweepResult& result);

/// Streams the result through a sink: begin(column names), one add_row per
/// sweep row, end().
void emit(const SweepResult& result, const std::vector<MetricColumn>& columns,
          ResultSink& sink);
/// emit() with the standard_columns() column set.
void emit(const SweepResult& result, ResultSink& sink);

}  // namespace bsr
