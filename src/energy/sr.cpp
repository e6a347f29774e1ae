#include "energy/sr.hpp"

#include <algorithm>

namespace bsr::energy {

using predict::OpKind;

/// GreenLA predicts by first-iteration profiling.
constexpr bool kEnhanced = false;

sched::IterationDecision SlackReclamationStrategy::decide(
    int k, const sched::HybridPipeline& pipe) {
  const hw::DeviceModel& cpu = pipe.platform().cpu;
  const hw::DeviceModel& gpu = pipe.platform().gpu;

  sched::IterationDecision d;
  if (k == 0) {
    // Profile iteration: run at base clocks.
    d.cpu_freq = cpu.freq.base_mhz;
    d.gpu_freq = gpu.freq.base_mhz;
    d.adjust_cpu = true;
    d.adjust_gpu = true;
    return d;
  }

  const predict::SlackHistory& history = pipe.history();
  const double t_cpu = history.predict(OpKind::PD, k, kEnhanced);
  const double t_gpu = history.predict(OpKind::TMU, k, kEnhanced);
  const double t_xfer = history.predict(OpKind::Transfer, k, kEnhanced);
  const double slack = t_gpu - t_cpu - t_xfer;

  hw::Mhz f_cpu = cpu.freq.base_mhz;
  hw::Mhz f_gpu = gpu.freq.base_mhz;
  if (slack > 0.0) {
    // CPU is off the critical path: stretch PD into the slack.
    const double t_desired =
        t_gpu - t_xfer - cpu.dvfs_latency.seconds();
    f_cpu = std::min(freq_for_time(t_cpu, t_desired, cpu, false),
                     cpu.freq.base_mhz);
  } else if (slack < 0.0) {
    // GPU is off the critical path: stretch PU+TMU.
    const double t_desired =
        t_cpu + t_xfer - gpu.dvfs_latency.seconds();
    f_gpu = std::min(freq_for_time(t_gpu, t_desired, gpu, false),
                     gpu.freq.base_mhz);
  }

  // Projection guard (same safeguard BSR formalizes in Algorithm 2 l.18-22):
  // skip the adjustment when the projected stretched task would exceed the
  // iteration's critical-path length.
  const double t_max = std::max(t_gpu, t_cpu + t_xfer);
  const double eps = 1e-3 * t_max;
  const bool cpu_ok = time_at_freq(t_cpu, f_cpu, cpu) + t_xfer <= t_max + eps;
  const bool gpu_ok = time_at_freq(t_gpu, f_gpu, gpu) <= t_max + eps;

  d.cpu_freq = f_cpu;
  d.gpu_freq = f_gpu;
  d.adjust_cpu = cpu_ok && f_cpu != pipe.cpu_freq();
  d.adjust_gpu = gpu_ok && f_gpu != pipe.gpu_freq();
  return d;
}

}  // namespace bsr::energy
