#include "energy/bsr_strategy.hpp"

#include <algorithm>
#include <cmath>

namespace bsr::energy {

using predict::OpKind;

sched::IterationDecision BsrStrategy::decide(int k,
                                             const sched::HybridPipeline& pipe) {
  const hw::DeviceModel& cpu = pipe.platform().cpu;
  const hw::DeviceModel& gpu = pipe.platform().gpu;
  const auto& wl = pipe.workload();
  const std::int64_t blocks = (wl.n / wl.b) * (wl.n / wl.b);
  const bool oc = config_.allow_overclocking;

  sched::IterationDecision d;
  // Algorithm 2 line 2: the optimized guardband is applied for the whole run.
  const hw::Guardband gb = config_.use_optimized_guardband
                               ? hw::Guardband::Optimized
                               : hw::Guardband::Default;
  d.cpu_guardband = gb;
  d.gpu_guardband = gb;

  if (k == 0) {
    d.cpu_freq = cpu.freq.base_mhz;
    d.gpu_freq = gpu.freq.base_mhz;
    d.adjust_cpu = true;
    d.adjust_gpu = true;
    return d;
  }

  // Lines 3-4: enhanced algorithmic prediction and slack.
  const predict::SlackHistory& history = pipe.history();
  const bool enhanced = config_.use_enhanced_predictor;
  const double t_cpu = history.predict(OpKind::PD, k, enhanced);
  const double t_gpu = history.predict(OpKind::TMU, k, enhanced);
  const double t_xfer = history.predict(OpKind::Transfer, k, enhanced);
  const double slack = t_gpu - t_cpu - t_xfer;
  const double r = config_.reclamation_ratio;
  const double l_cpu = cpu.dvfs_latency.seconds();
  const double l_gpu = gpu.dvfs_latency.seconds();

  // With r > 0 the critical-path processor additionally compensates for the
  // DVFS transition latency (paper lines 6/9): late in the decomposition the
  // tasks shrink toward the latency scale, which is what pushes the desired
  // clock up the overclocking staircase (Fig. 9's 1700 -> 1900 -> 2200 MHz
  // progression). At r = 0 nothing is reclaimed by speeding up, so the
  // critical side stays at base and BSR saves purely by slowing the idle side
  // under the optimized guardband.
  double t_cpu_desired = 0.0;
  double t_gpu_desired = 0.0;
  if (slack > 0.0) {
    const double reclaim = r > 0.0 ? slack * r + l_gpu : 0.0;
    t_gpu_desired = t_gpu - reclaim;
    t_cpu_desired = std::max(t_cpu, t_gpu_desired - l_cpu - t_xfer);
  } else {
    const double reclaim = r > 0.0 ? (-slack) * r + l_cpu : 0.0;
    t_cpu_desired = t_cpu - reclaim;
    t_gpu_desired = std::max(t_gpu, t_cpu_desired + t_xfer - l_gpu);
  }

  // Lines 12-15: frequencies, rounded up to the grid, clamped to the
  // reachable range (overclocked states only when the ablation allows them —
  // this is where speeding the critical path past base enters).
  hw::Mhz f_gpu = freq_for_time(t_gpu, t_gpu_desired, gpu, oc);
  hw::Mhz f_cpu = freq_for_time(t_cpu, t_cpu_desired, cpu, oc);
  if (!oc) {
    f_gpu = std::min(f_gpu, gpu.freq.base_mhz);
    f_cpu = std::min(f_cpu, cpu.freq.base_mhz);
  }

  // Line 23: adaptive ABFT may lower the GPU clock to a coverable frequency
  // and tells us which checksum scheme to run.
  const abft::AbftDecision ad =
      abft::abft_oc(config_.fc_desired, f_gpu, gpu, t_gpu, blocks);
  f_gpu = oc ? ad.freq : std::min(ad.freq, gpu.freq.base_mhz);

  // Lines 16-22: projection guard — skip the transition when the projected
  // time would push past the iteration's critical path.
  const double t_max = std::max(t_gpu, t_cpu + t_xfer);
  const double eps = 1e-3 * t_max;
  const double t_gpu_proj = time_at_freq(t_gpu, f_gpu, gpu);
  const double t_cpu_proj = time_at_freq(t_cpu, f_cpu, cpu);
  const bool adjust_gpu = t_gpu_proj <= t_max + eps;
  const bool adjust_cpu = t_cpu_proj + t_xfer <= t_max + eps;

  d.cpu_freq = f_cpu;
  d.gpu_freq = f_gpu;
  d.adjust_cpu = adjust_cpu && f_cpu != pipe.cpu_freq();
  d.adjust_gpu = adjust_gpu && f_gpu != pipe.gpu_freq();

  // The protection level must match the clock that will actually run: when
  // the transition is skipped the previous (possibly overclocked) frequency
  // persists, so re-evaluate ABFT-OC for it (full checksums where no scheme
  // covers it).
  const hw::Mhz running = d.adjust_gpu ? f_gpu : pipe.gpu_freq();
  d.abft_mode =
      running == f_gpu
          ? ad.mode
          : abft::mode_at(config_.fc_desired, running, gpu, t_gpu, blocks);
  return d;
}

}  // namespace bsr::energy
