#include "abft/adaptive.hpp"

#include "abft/coverage.hpp"

namespace bsr::abft {

namespace {

/// Algorithm 1's ladder over `dom`, reading the optimized-guardband SDC
/// rates of each candidate clock from `rates_at`.
template <typename RatesAt>
AbftDecision ladder(double fc_desired, hw::Mhz f_desired,
                    const hw::FrequencyDomain& dom, const RatesAt& rates_at,
                    double t_base_seconds, std::int64_t blocks) {
  // A coverage whose bound lies below `reach` cannot reach fc_desired, so
  // its sum is not evaluated (coverage_bound).
  const double reach = fc_desired - kBoundSlack;
  AbftDecision d;
  d.freq = dom.clamp(f_desired, /*optimized_guardband=*/true);
  for (;;) {
    const hw::ErrorRates rates = rates_at(d.freq);
    if (rates.fault_free()) {
      d.mode = ChecksumMode::None;
      d.coverage = 1.0;
      return d;
    }
    const double t_projected = t_base_seconds *
                               static_cast<double>(dom.base_mhz) /
                               static_cast<double>(d.freq);
    // The floor step's full coverage is the decision's, so it is always
    // evaluated there.
    const bool at_floor = d.freq - dom.step_mhz < dom.min_mhz;
    const CoverageBound bound = coverage_bound(rates, t_projected, blocks);
    if (bound.full < reach && !at_floor) {
      d.freq -= dom.step_mhz;
      continue;
    }
    // One step's two coverages share their Poisson row and e^{-l2 T}.
    StepCoverage step(rates, t_projected, blocks);
    if (bound.single >= reach) {
      const double single = step.single();
      if (single >= fc_desired) {
        d.mode = ChecksumMode::SingleSide;
        d.coverage = single;
        return d;
      }
    }
    const double full = step.full();
    if (full >= fc_desired || at_floor) {
      // At the floor, settle for full checksums: the clock cannot go lower.
      d.mode = ChecksumMode::Full;
      d.coverage = full;
      return d;
    }
    d.freq -= dom.step_mhz;
  }
}

}  // namespace

AbftDecision abft_oc(double fc_desired, hw::Mhz f_desired,
                     const hw::DeviceModel& gpu, double t_base_seconds,
                     std::int64_t blocks) {
  return ladder(
      fc_desired, f_desired, gpu.freq,
      [&gpu](hw::Mhz f) {
        return gpu.errors.rates(f, hw::Guardband::Optimized);
      },
      t_base_seconds, blocks);
}

AbftDecision abft_oc(double fc_desired, hw::Mhz f_desired,
                     const hw::ClockTable& gpu, double t_base_seconds,
                     std::int64_t blocks) {
  return ladder(
      fc_desired, f_desired, gpu.device().freq,
      [&gpu](hw::Mhz f) { return gpu.rates(f, hw::Guardband::Optimized); },
      t_base_seconds, blocks);
}

ChecksumMode mode_at(double fc_desired, hw::Mhz f, const hw::DeviceModel& gpu,
                     double t_base_seconds, std::int64_t blocks) {
  const AbftDecision d = abft_oc(fc_desired, f, gpu, t_base_seconds, blocks);
  return d.freq == f ? d.mode : ChecksumMode::Full;
}

ChecksumMode mode_at(double fc_desired, hw::Mhz f, const hw::ClockTable& gpu,
                     double t_base_seconds, std::int64_t blocks) {
  const AbftDecision d = abft_oc(fc_desired, f, gpu, t_base_seconds, blocks);
  return d.freq == f ? d.mode : ChecksumMode::Full;
}

}  // namespace bsr::abft
