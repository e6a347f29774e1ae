// Per-iteration task durations and scheduling records.
//
// The pipeline models one iteration of the look-ahead blocked factorization
// (paper Fig. 1(b)): the CPU lane receives the next panel, factorizes it (PD)
// and ships it back, while the GPU lane runs the panel update (PU), the
// trailing-matrix update (TMU), and — when ABFT is active — checksum
// maintenance. The two lanes synchronize at the iteration boundary; the lane
// that finishes first idles, producing the slack the strategies reclaim.
#pragma once

#include "abft/checksum.hpp"
#include "common/sim_time.hpp"
#include "faultcamp/process.hpp"
#include "hw/clock_table.hpp"
#include "hw/platform.hpp"
#include "predict/workload.hpp"

namespace bsr::sched {

/// What a strategy decides before an iteration runs (paper Algorithm 2 output).
struct IterationDecision {
  hw::Mhz cpu_freq = 0;       ///< requested CPU clock (0 = keep current)
  hw::Mhz gpu_freq = 0;       ///< requested GPU clock (0 = keep current)
  bool adjust_cpu = false;    ///< actually perform the CPU DVFS transition
  bool adjust_gpu = false;
  hw::Guardband cpu_guardband = hw::Guardband::Default;
  hw::Guardband gpu_guardband = hw::Guardband::Default;
  abft::ChecksumMode abft_mode = abft::ChecksumMode::None;
  bool halt_idle_cpu = false;  ///< R2H: drop to the floor clock during slack
  bool halt_idle_gpu = false;
};

/// Raw (noise-free model) durations of the iteration's tasks at given clocks.
struct TaskDurations {
  SimTime pd;
  SimTime pu;
  SimTime tmu;
  SimTime transfer;
  SimTime chk_update;
  SimTime chk_verify;
};

/// Everything measured about one executed iteration.
struct IterationOutcome {
  int k = 0;
  hw::Mhz cpu_freq = 0;
  hw::Mhz gpu_freq = 0;
  abft::ChecksumMode abft_mode = abft::ChecksumMode::None;

  // Lane composition (already noise-inflated).
  SimTime pd;
  SimTime pu_tmu;       ///< PU + TMU busy time on the GPU
  SimTime transfer;
  SimTime abft_time;    ///< checksum update + verification
  SimTime cpu_dvfs;     ///< transition latency charged to the CPU lane
  SimTime gpu_dvfs;

  SimTime cpu_lane;     ///< transfer + PD (+ dvfs)
  SimTime gpu_lane;     ///< PU + TMU + ABFT (+ dvfs)
  SimTime span;         ///< max of the lanes; iteration wall time
  SimTime slack;        ///< gpu_lane - cpu_lane; >0 means the CPU idles

  double cpu_energy_j = 0.0;
  double gpu_energy_j = 0.0;

  // Base-clock-normalized measured durations, as the slack history holds
  // them.
  double pd_base_s = 0.0;
  double pu_tmu_base_s = 0.0;
  double transfer_s = 0.0;

  // Fault-campaign accounting (all zero unless the run's faults block is
  // enabled — see faultcamp/process.hpp). `recovery` is the in-lane
  // correction latency plus the base-clock rollback recompute; it is part of
  // gpu_lane (and therefore span), not an extra additive channel.
  faultcamp::Resolution faults;
  SimTime recovery;

  [[nodiscard]] double energy_j() const { return cpu_energy_j + gpu_energy_j; }
};

/// Computes model durations of one iteration's work `w`, with each lane at
/// the clock its ClockState describes.
TaskDurations compute_durations(const predict::IterationWork& w,
                                const hw::TransferModel& link,
                                const hw::ClockState& cpu,
                                const hw::ClockState& gpu,
                                abft::ChecksumMode abft_mode);

}  // namespace bsr::sched
