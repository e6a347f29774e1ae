#include "energy/strategy.hpp"

#include <cmath>

namespace bsr::energy {

sched::RunTrace run_under_strategy(sched::HybridPipeline& pipe,
                                   Strategy& strategy) {
  sched::RunTrace trace;
  const int iters = pipe.num_iterations();
  for (int k = 0; k < iters; ++k) {
    trace.add(pipe.run_iteration(k, strategy.decide(k, pipe)));
  }
  return trace;
}

double time_at_freq(double t_base_s, hw::Mhz f, const hw::DeviceModel& dev) {
  return t_base_s * dev.perf.time_scale(f, dev.freq);
}

double time_at_freq(double t_base_s, hw::Mhz f, const hw::ClockTable& clk) {
  return t_base_s * clk.time_scale(f);
}

hw::Mhz freq_for_time(double t_base_s, double t_desired_s,
                      const hw::DeviceModel& dev, bool optimized_guardband) {
  // Nothing to run -> any clock satisfies the deadline; stay at base (this
  // matters for the final iteration, whose trailing update is empty).
  if (t_base_s <= 0.0) return dev.freq.base_mhz;
  if (t_desired_s <= 0.0) {
    return dev.freq.clamp(dev.freq.max_oc_mhz, optimized_guardband);
  }
  // time ∝ (f_base/f)^eta  =>  f = f_base * (t_base/t_desired)^(1/eta)
  const double ratio =
      std::pow(t_base_s / t_desired_s, 1.0 / dev.perf.freq_exponent);
  return dev.freq.round_up_from_ratio(ratio, optimized_guardband);
}

}  // namespace bsr::energy
