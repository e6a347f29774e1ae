// Run report: everything a caller (or bench) wants to know about one run.
#pragma once

#include <vector>

#include "abft/verify.hpp"
#include "bsr/run_config.hpp"
#include "cluster/report.hpp"
#include "sched/timeline.hpp"

namespace bsr::core {

/// One lane's fault-campaign outcome over a whole run (see bsr/faults.hpp):
/// how many faults struck its update windows and what became of each. Empty
/// `RunReport::lane_faults` means the run's faults block was disabled.
/// Invariant: injected == corrected + recovered + unrecovered.
struct LaneFaults {
  std::string lane;                ///< "gpu" single-node, device name at scale
  std::int64_t injected = 0;       ///< faults sampled into this lane
  std::int64_t corrected = 0;      ///< repaired in place by the checksums
  std::int64_t recovered = 0;      ///< uncorrectable, recovered by rollback
  std::int64_t unrecovered = 0;    ///< silent, or rollback disabled
  int rollbacks = 0;               ///< update redos triggered on this lane
  double recovery_s = 0.0;         ///< correction + rollback time, in-lane
};

struct RunReport {
  /// The configuration as run: `b` resolved to the effective block size and
  /// `trace` null (a report may outlive the caller's recorder). Serialized
  /// reports echo only the paper's per-run knobs (the "options" object, see
  /// serve/report_json.hpp), so in a deserialized report every other field —
  /// abft_policy, the BSR switches, platform, devices and the cluster layout
  /// among them — reads back as its RunConfig default.
  RunConfig config;
  /// Empty for single-node runs of the four built-in strategies; otherwise
  /// the strategy's canonical registry key (every cluster run, and
  /// registry-only strategies, whose echoed kind reads BSR).
  std::string strategy_name;
  sched::RunTrace trace;
  abft::AbftStats abft;

  bool numeric_executed = false;
  double residual = 0.0;         ///< relative factorization residual (numeric)
  bool numeric_correct = true;   ///< residual below threshold

  /// Cost of redoing trailing updates after uncorrectable detections
  /// (RunConfig::recover_uncorrectable); included in seconds()/energy.
  SimTime recovery_time;
  double recovery_energy_j = 0.0;

  /// Per-device breakdown when the run executed on the cluster engine
  /// (RunConfig::devices >= 1): element 0 is the host, then one entry per
  /// accelerator. Empty for classic single-node runs. Totals above already
  /// aggregate these (cpu_energy = host, gpu_energy = all accelerators).
  std::vector<cluster::DeviceUsage> device_usage;

  /// Per-lane fault/recovery accounting when the run's faults block was
  /// enabled (one entry per exposed lane; empty otherwise). The recovery
  /// time in here is already inside seconds() — it delayed the lanes in
  /// place — unlike the additive numeric-mode `recovery_time` above.
  std::vector<LaneFaults> lane_faults;

  [[nodiscard]] double seconds() const {
    return (trace.total_time + recovery_time).seconds();
  }
  [[nodiscard]] double total_energy_j() const {
    return trace.total_energy_j() + recovery_energy_j;
  }
  [[nodiscard]] double cpu_energy_j() const { return trace.cpu_energy_j; }
  [[nodiscard]] double gpu_energy_j() const {
    return trace.gpu_energy_j + recovery_energy_j;
  }
  [[nodiscard]] double ed2p() const {
    return total_energy_j() * seconds() * seconds();
  }
  [[nodiscard]] double gflops() const {
    const double t = seconds();
    return t <= 0.0 ? 0.0 : config.workload().total_flops() / t / 1e9;
  }

  /// Total faults sampled into the run's lanes (0 when faults were off).
  [[nodiscard]] std::int64_t faults_injected() const {
    std::int64_t n = 0;
    for (const LaneFaults& l : lane_faults) n += l.injected;
    return n;
  }
  /// Faults that did NOT corrupt the result: corrected in place or recovered
  /// by rollback.
  [[nodiscard]] std::int64_t faults_covered() const {
    std::int64_t n = 0;
    for (const LaneFaults& l : lane_faults) n += l.corrected + l.recovered;
    return n;
  }
  /// Fraction of injected faults covered (1.0 when nothing was injected) —
  /// the campaign counterpart of fig09's numeric correctness rate.
  [[nodiscard]] double fault_coverage() const {
    const std::int64_t inj = faults_injected();
    return inj == 0 ? 1.0
                    : static_cast<double>(faults_covered()) /
                          static_cast<double>(inj);
  }
  /// Total in-lane recovery time (correction + rollbacks) across lanes.
  [[nodiscard]] double fault_recovery_s() const {
    double s = 0.0;
    for (const LaneFaults& l : lane_faults) s += l.recovery_s;
    return s;
  }

  /// Fraction of energy saved relative to a baseline run (positive = better).
  [[nodiscard]] double energy_saving_vs(const RunReport& baseline) const {
    return 1.0 - total_energy_j() / baseline.total_energy_j();
  }
  [[nodiscard]] double ed2p_reduction_vs(const RunReport& baseline) const {
    return 1.0 - ed2p() / baseline.ed2p();
  }
  [[nodiscard]] double speedup_vs(const RunReport& baseline) const {
    return baseline.seconds() / seconds();
  }
};

/// The StrategyKind spelling ("Original", "R2H", "SR", "BSR") of
/// `config.strategy`, as reports echo and summarize() prints it; registry-only
/// strategies have no kind and read "BSR".
const char* strategy_kind_name(const RunConfig& config);

/// The config a report carries (RunReport::config): `config` with `b`
/// resolved by block() and `trace` null.
RunConfig as_run(const RunConfig& config);

}  // namespace bsr::core
