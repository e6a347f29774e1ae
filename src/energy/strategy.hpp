// Strategy interface + shared frequency/time arithmetic.
//
// A strategy is consulted at the top of every pipeline iteration (exactly
// where paper Algorithm 2 runs) and returns the DVFS/guardband/ABFT decision.
// It only decides: the engine owns the measurements, and a strategy that
// predicts reads them from the pipeline's slack history.
#pragma once

#include <memory>

#include "hw/clock_table.hpp"
#include "sched/pipeline.hpp"

namespace bsr::energy {

/// The four built-in energy-management strategies; both engines realize
/// each of them.
enum class StrategyKind {
  Original,  ///< Fixed reference clocks, no slack reclamation (the baseline).
  R2H,       ///< Race-to-halt: run at max clock, idle the slack away.
  SR,        ///< Single-directional reclamation (GreenLA): down-clock the
             ///< non-critical device to absorb its slack.
  BSR,       ///< Bi-directional reclamation (paper Algorithm 2): split slack
             ///< between down-clocking the non-critical device and
             ///< overclocking the critical one, steered by
             ///< RunConfig::reclamation_ratio.
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual sched::IterationDecision decide(int k,
                                          const sched::HybridPipeline& pipe) = 0;
};

/// Runs the whole factorization under `strategy` and returns the trace.
sched::RunTrace run_under_strategy(sched::HybridPipeline& pipe, Strategy& strategy);

// ---- shared helpers ---------------------------------------------------------

/// Projected duration at frequency f of a task measured at base clock,
/// using the device's perf-scaling exponent (time ∝ (f_base/f)^eta).
double time_at_freq(double t_base_s, hw::Mhz f, const hw::DeviceModel& dev);
/// The same projection, reading (f_base/f)^eta from a run's clock table.
double time_at_freq(double t_base_s, hw::Mhz f, const hw::ClockTable& clk);

/// Smallest on-grid frequency whose projected time meets t_desired (i.e. the
/// paper's Roundup(F_BASE * T'/T_desired, 100 MHz), generalized to the
/// device's scaling exponent), clamped to the reachable range.
hw::Mhz freq_for_time(double t_base_s, double t_desired_s,
                      const hw::DeviceModel& dev, bool optimized_guardband);

}  // namespace bsr::energy
