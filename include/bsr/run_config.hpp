// bsr/run_config.hpp — the single validated configuration for one experiment.
//
// RunConfig is the one configuration every run is made from, from the
// facade down to both engines and into RunReport. It is a flat, string-keyed
// struct: strategies, ABFT policies, and platform profiles are named by their
// bsr::Registry keys (see bsr/registry.hpp), so a scenario registered at
// runtime plugs into RunConfig / Sweep without touching core/.
// docs/API_MIGRATION.md maps the removed legacy option structs onto it.
#pragma once

#include <cstdint>
#include <string>

#include "core/options.hpp"
#include "faultcamp/process.hpp"
#include "var/models.hpp"

namespace bsr {

namespace core {
struct RunReport;
}  // namespace core

namespace obs {
class TraceRecorder;
}  // namespace obs

/// Re-exported per-iteration ABFT policy (adaptive / force-none / -single /
/// -full) so facade users never spell core::.
using core::AbftPolicy;
/// Re-exported execution mode: TimingOnly (simulated clocks) or Numeric
/// (real kernels + real ABFT + fault injection).
using core::ExecutionMode;
/// Re-exported strategy enum: the kind tag of the four built-in registry
/// entries (bsr::StrategyEntry::kind); configs name strategies by key.
using core::StrategyKind;
/// Re-exported factorization selector: Cholesky, LU, or QR.
using predict::Factorization;

/// All knobs for one run. Defaults reproduce the paper's headline
/// configuration: LU, n = 30720, tuned block, BSR with r = 0 (maximum energy
/// saving), adaptive ABFT, timing-only execution on the paper platform.
struct RunConfig {
  // -- workload ---------------------------------------------------------------
  Factorization factorization = Factorization::LU;  ///< which decomposition
  std::int64_t n = 30720;  ///< matrix order
  /// Block (panel) size; 0 = auto-tune via core::tuned_block(n).
  std::int64_t b = 0;
  int elem_bytes = 8;  ///< 8 = double precision, 4 = single

  // -- strategy ---------------------------------------------------------------
  /// Energy-management strategy, a bsr::strategies() registry key
  /// ("original", "r2h", "sr", "bsr", or anything registered at runtime).
  std::string strategy = "bsr";
  /// BSR's r in [0, 1]: the fraction of each iteration's slack left
  /// unreclaimed by overclocking. r = 0 maximizes energy saving; r = r*
  /// (see energy/pareto.hpp) is energy-neutral with maximum speedup.
  double reclamation_ratio = 0.0;
  double fc_desired = 0.999999;  ///< target ABFT fault coverage
  // BSR ablation switches (all on = the paper's full BSR).
  bool bsr_use_optimized_guardband = true;  ///< apply the -150 mV guardband
  bool bsr_allow_overclocking = true;       ///< permit above-base clocks
  bool bsr_use_enhanced_predictor = true;   ///< enhanced vs first-iteration

  // -- fault tolerance --------------------------------------------------------
  /// Per-iteration checksum policy, a bsr::abft_policies() registry key
  /// ("adaptive", "none", "single", "full").
  std::string abft_policy = "adaptive";
  /// Numeric mode: when ABFT *detects* an error pattern it cannot correct,
  /// roll the trailing update back and recompute it at a safe clock instead
  /// of letting the corruption propagate.
  bool recover_uncorrectable = false;

  // -- execution --------------------------------------------------------------
  ExecutionMode mode = ExecutionMode::TimingOnly;  ///< simulate, or run real
  std::uint64_t seed = 42;  ///< root seed for all stochastic parts
  /// Scales the platform's entire SDC-rate table (exposure compression for
  /// reduced-size numeric runs; see DESIGN.md).
  double error_rate_multiplier = 1.0;
  bool noise_enabled = true;  ///< per-task execution-time jitter on/off

  // -- platform ---------------------------------------------------------------
  /// Simulated platform, a bsr::platforms() registry key ("paper_default",
  /// "test_small", "numeric_demo"). Ignored on cluster runs (devices >= 1).
  std::string platform = "paper_default";

  // -- variability (bsr/variability.hpp) --------------------------------------
  /// Seeded stochastic execution models: per-device efficiency drift,
  /// transfer jitter, DVFS transition jitter + P-state quantization, and a
  /// sustained-boost thermal budget. Disabled by default (bit-for-bit the
  /// deterministic simulator); when enabled, streams derive from `seed`
  /// (or variability.seed when non-zero) so runs stay bitwise reproducible
  /// at any sweep thread count. Presets: bsr::make_variability(key).
  var::Spec variability;

  // -- faults (bsr/faults.hpp) ------------------------------------------------
  /// Seeded statistical fault processes plus the recovery-cost model:
  /// Poisson (or fixed fig09-style) SDC arrivals at the clock/voltage-
  /// dependent SDC-table rates of each lane's realized frequency, with burst
  /// and per-device-hazard variants; checksum-corrected faults pay the
  /// correction latency in-lane, uncorrectable ones roll the affected
  /// update back and recompute at the base clock. Timing-only (numeric runs
  /// inject real faults; validate() rejects the combination). Disabled by
  /// default (bit-for-bit the no-fault simulator); when enabled, per-lane
  /// streams derive from `seed` (or faults.seed when non-zero) so campaigns
  /// stay bitwise reproducible at any sweep thread count. Presets:
  /// bsr::make_faults(key); campaigns: bsr::FaultCampaign.
  faultcamp::Spec faults;

  // -- cluster (bsr/cluster.hpp) ----------------------------------------------
  /// Number of accelerator devices for the event-driven cluster engine.
  /// 0 (default) runs the classic single-node CPU+GPU pipeline — bit-for-bit
  /// the pre-cluster behavior; >= 1 distributes the factorization
  /// block-cyclically over that many devices of the `cluster` profile
  /// (timing-only; the single-node `platform` key is then ignored).
  int devices = 0;
  /// bsr::cluster_profiles() registry key, consulted when devices >= 1.
  std::string cluster = "paper_cluster";
  /// Process grid for the trailing-update distribution (2-D block-cyclic,
  /// ScaLAPACK-style): grid_p owners across block columns, grid_q across
  /// block rows; grid_p * grid_q must equal `devices`. 0/0 (default) picks
  /// per topology: flat profiles keep the 1-D (devices x 1) layout —
  /// bit-for-bit the pre-grid engine — and rack profiles get a near-square
  /// grid. Ignored when devices = 0.
  int grid_p = 0;
  int grid_q = 0;  ///< see grid_p
  /// Panel-broadcast schedule, a bsr::collectives() registry key ("auto",
  /// "relay", "ring", "tree"). "auto" (default) resolves per topology: the
  /// classic relay on flat profiles, the binomial tree on rack profiles.
  /// Ignored when devices = 0.
  std::string collective = "auto";
  /// Straggler rebalancing: re-weight per-device work shares every iteration
  /// by the lanes' predicted TMU throughput, so devices drifting slow under
  /// the variability model shed trailing blocks instead of pinning the
  /// critical path. Off (default) keeps the static block-cyclic shares —
  /// bit-for-bit the pre-rebalancing engine. Ignored when devices = 0.
  bool rebalance = false;

  // -- observability (bsr/observability.hpp) ----------------------------------
  /// Optional span recorder riding alongside the configuration: when
  /// non-null, both engines emit per-iteration / per-event spans into it at
  /// their realization points (export with bsr::write_chrome_trace). The
  /// pointer is deliberately excluded from fingerprint() and every
  /// serialization — tracing observes a run, it can never change its bytes
  /// or split the result caches. The recorder must outlive the run; the
  /// caller owns it. Null (the default) is a strict no-op.
  obs::TraceRecorder* trace = nullptr;

  /// The effective block size: b, or the auto-tuned size clamped to n.
  [[nodiscard]] std::int64_t block() const;

  /// Most iterations, ceil(n / block()), one run may ask for.
  static constexpr std::int64_t kMaxIterations = 4096;
  /// Largest n a numeric run (which allocates the n x n matrix) may ask for.
  static constexpr std::int64_t kMaxNumericN = 8192;

  /// Throws std::invalid_argument (message prefixed "RunConfig:") when any
  /// field is out of range or any registry key is unknown: n <= 0, b > n,
  /// more than kMaxIterations iterations, a numeric n above kMaxNumericN,
  /// reclamation_ratio outside [0, 1], fc_desired outside (0, 1),
  /// elem_bytes not 4/8, a negative or non-finite error_rate_multiplier, or
  /// an unregistered strategy / abft_policy / platform name.
  void validate() const;

  /// Canonical "key=value;" serialization of every field. Fields with no
  /// effect on the result under the current mode (recover_uncorrectable in
  /// timing-only runs) are normalized out, so the fingerprint is usable as an
  /// exact result-cache key (bsr::Sweep keys its run cache on it).
  [[nodiscard]] std::string fingerprint() const;

  /// The per-iteration flop/byte model of this configuration's workload.
  [[nodiscard]] predict::WorkloadModel workload() const {
    return predict::WorkloadModel{factorization, n, block(), elem_bytes};
  }
};

/// One-shot facade: validates, resolves the platform through the registry,
/// and runs. Equivalent to core::Decomposer(make_platform(cfg.platform))
/// .run(cfg) — prefer bsr::Sweep for grids (it parallelizes and caches).
core::RunReport run(const RunConfig& cfg);

/// Splitmix64-derived seed for cell `index` of a grid rooted at `root`.
/// Depends only on (root, index) — never on the worker executing the cell —
/// so sweeps are bitwise reproducible at any thread count.
std::uint64_t derive_cell_seed(std::uint64_t root, std::uint64_t index);

}  // namespace bsr
