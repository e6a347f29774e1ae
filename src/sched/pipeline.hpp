// The simulated look-ahead CPU-GPU factorization pipeline.
//
// Executes one iteration at a time under a strategy-supplied
// IterationDecision, advancing a deterministic simulated clock, integrating
// each lane's energy (power x duration per segment) into the iteration's
// IterationOutcome, and recording the measured durations into the run's
// slack history, which strategies read. A calibrated efficiency-drift +
// noise model perturbs task times the way real kernels drift as the trailing
// matrix shrinks — this is what separates the enhanced slack predictor from
// the first-iteration baseline (paper Fig. 8).
#pragma once

#include "common/rng.hpp"
#include "hw/clock_table.hpp"
#include "hw/platform.hpp"
#include "obs/trace.hpp"
#include "predict/slack_history.hpp"
#include "sched/tasks.hpp"
#include "sched/timeline.hpp"
#include "var/models.hpp"

namespace bsr::sched {

/// Multiplicative task-time perturbation: time is inflated by
/// (1 + drift * progress^2) * lognormal(sigma), where progress = k / K.
/// GPU kernels lose more efficiency late in the run (small trailing updates
/// underutilize the device); the CPU panel is steadier. The calibration is
/// fixed; a run only switches it on or off.
struct NoiseModel {
  static constexpr double cpu_drift = 0.06;
  static constexpr double gpu_drift = 0.22;
  static constexpr double sigma = 0.02;  ///< relative run-to-run noise
  bool enabled = true;
};

struct PipelineConfig {
  predict::WorkloadModel workload;
  NoiseModel noise;
  std::uint64_t seed = 12345;
  /// Seeded stochastic execution models on top of the calibrated NoiseModel:
  /// per-lane efficiency drift walks, transfer/DVFS jitter, P-state
  /// quantization, and thermal boost budgets (bsr/variability.hpp). Disabled
  /// by default — the pipeline is then bit-for-bit the pre-variability one.
  var::Spec variability;
  /// Seeded statistical fault processes plus the recovery-cost model
  /// (bsr/faults.hpp): faults strike the GPU's update window at the SDC-table
  /// rates of its realized clock, corrected ones pay the correction latency
  /// in-lane, uncorrectable ones roll the update back and recompute at the
  /// base clock. Disabled by default — the pipeline is then bit-for-bit the
  /// no-fault one, with no RNG draws.
  faultcamp::Spec faults;
  /// Optional span recorder (bsr/observability.hpp). The pipeline emits
  /// per-iteration / per-lane spans into it at the same realization points
  /// that fill IterationOutcome; null (the default) skips every emission.
  /// Pure observation: values already computed are copied out, no RNG is
  /// drawn, and the run's results are bit-for-bit identical either way.
  obs::TraceRecorder* trace = nullptr;
};

class HybridPipeline {
 public:
  HybridPipeline(const hw::PlatformProfile& platform, PipelineConfig config);
  // history_ points at work_.
  HybridPipeline(const HybridPipeline&) = delete;
  HybridPipeline& operator=(const HybridPipeline&) = delete;

  [[nodiscard]] int num_iterations() const { return work_.num_iterations(); }
  [[nodiscard]] const predict::WorkloadModel& workload() const {
    return config_.workload;
  }
  [[nodiscard]] const hw::PlatformProfile& platform() const { return platform_; }

  [[nodiscard]] hw::Mhz cpu_freq() const { return cpu_dvfs_.current(); }
  [[nodiscard]] hw::Mhz gpu_freq() const { return gpu_dvfs_.current(); }
  [[nodiscard]] SimTime now() const { return now_; }

  /// Noise factor applied to a lane at iteration k (exposed so strategies'
  /// oracles in tests can reason about ground truth).
  [[nodiscard]] double noise_factor(hw::DeviceId dev, int k) const;

  /// The lane's variability state (inert when the config's block is
  /// disabled); exposed so tests can assert drift/throttle ground truth.
  [[nodiscard]] const var::LaneVariability& variability(hw::DeviceId dev) const {
    return dev == hw::DeviceId::Cpu ? cpu_var_ : gpu_var_;
  }

  /// Base-clock PD, PU+TMU and transfer profiles of every iteration run so
  /// far, on the run's workload table: what strategies predict from.
  [[nodiscard]] const predict::SlackHistory& history() const {
    return history_;
  }

  /// Executes iteration k under the decision; integrates time and energy,
  /// and records the iteration's profiles into history().
  IterationOutcome run_iteration(int k, const IterationDecision& d);

  /// Model durations of iteration k's tasks with both lanes at their base
  /// clocks: what a rollback or numeric recovery redoes.
  [[nodiscard]] TaskDurations base_clock_durations(
      int k, abft::ChecksumMode abft_mode) const;

 private:
  /// Points `state` at clock f of `dev` when it describes another clock.
  static void settle_clock(hw::ClockState& state, hw::Mhz& state_mhz,
                           const hw::DeviceModel& dev, hw::Mhz f);

  hw::PlatformProfile platform_;
  PipelineConfig config_;
  predict::WorkloadTable work_;  ///< one IterationWork row per iteration
  predict::SlackHistory history_;  ///< the run's one history, on work_
  hw::DvfsController cpu_dvfs_;
  hw::DvfsController gpu_dvfs_;
  // Each lane's clock-dependent model values at its current clock,
  // recomputed only when the clock changes.
  hw::ClockState cpu_clk_;
  hw::ClockState gpu_clk_;
  hw::Mhz cpu_clk_mhz_ = 0;
  hw::Mhz gpu_clk_mhz_ = 0;
  SimTime now_;
  std::vector<double> cpu_noise_;  ///< precomputed per-iteration factors
  std::vector<double> gpu_noise_;
  var::LaneVariability cpu_var_;  ///< inert unless config_.variability.enabled
  var::LaneVariability gpu_var_;
  faultcamp::FaultProcess gpu_faults_;  ///< inert unless config_.faults.enabled
};

}  // namespace bsr::sched
