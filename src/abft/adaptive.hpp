// Adaptive-ABFT strategy — paper Algorithm 1 (ABFT-OC).
//
// Given the desired GPU frequency BSR wants, the predicted operation time and
// a target fault coverage, pick the cheapest checksum scheme that still covers
// all expected errors, lowering the frequency step by step when even full
// checksums cannot reach the target. At fault-free frequencies ABFT is
// disabled entirely — the paper's key overhead saving over always-on ABFT.
// A step whose coverage bound (abft/coverage.hpp) already misses the target
// is passed without evaluating its sums; every decision keeps its bits.
#pragma once

#include <cstdint>

#include "abft/checksum.hpp"
#include "hw/clock_table.hpp"
#include "hw/platform.hpp"

namespace bsr::abft {

struct AbftDecision {
  hw::Mhz freq = 0;                          ///< possibly lowered frequency
  ChecksumMode mode = ChecksumMode::None;    ///< protection to enable
  double coverage = 1.0;                     ///< estimated FC at the decision
};

/// Paper Algorithm 1. `t_base_seconds` is the predicted GPU op time at the
/// base clock; the projected time at a candidate frequency scales inversely
/// with frequency. (The paper's listing prints the ratio upside down —
/// F_desired / F_BASE — which would make overclocked intervals *longer*; we
/// implement the physically meaningful direction and note the deviation.)
/// `blocks` is S = (n/b)^2.
AbftDecision abft_oc(double fc_desired, hw::Mhz f_desired,
                     const hw::DeviceModel& gpu, double t_base_seconds,
                     std::int64_t blocks);

/// The same ladder, reading each candidate clock's SDC rates from a run's
/// clock table.
AbftDecision abft_oc(double fc_desired, hw::Mhz f_desired,
                     const hw::ClockTable& gpu, double t_base_seconds,
                     std::int64_t blocks);

/// The checksum scheme for a lane that runs at `f`: abft_oc's mode when its
/// ladder keeps `f`, and Full when the ladder steps down from it (no scheme
/// reaches fc_desired at `f`), which is the ladder's own rule at its floor.
ChecksumMode mode_at(double fc_desired, hw::Mhz f, const hw::DeviceModel& gpu,
                     double t_base_seconds, std::int64_t blocks);
ChecksumMode mode_at(double fc_desired, hw::Mhz f, const hw::ClockTable& gpu,
                     double t_base_seconds, std::int64_t blocks);

}  // namespace bsr::abft
