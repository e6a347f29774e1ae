// Per-run clock tables: the clock-dependent values of a device model, filled
// once per DVFS state so the engines read them instead of re-evaluating
// std::pow and the SDC-rate map on every event.
//
// ClockState::at(dev, f) fills every value at clock f through the function
// that defines it, so a table entry has the same bits as a direct call. A
// ClockTable holds one ClockState per state of the model's DVFS grid (min_mhz
// to max_oc_mhz in step_mhz steps). A clock off that grid, such as one a
// variability quantum that is not a multiple of the step produces, is
// computed on the spot by the defining function and not cached. Tables
// belong to the run that builds them; nothing here is process-wide.
#pragma once

#include <array>
#include <vector>

#include "hw/platform.hpp"

namespace bsr::hw {

/// Everything the engines read about one device model at one clock.
struct ClockState {
  /// PerfModel::gflops, indexed by KernelClass.
  std::array<double, kNumKernelClasses> gflops{};
  double verify_bandwidth = 0.0;  ///< PerfModel::verify_bandwidth
  /// DeviceModel::busy_power, indexed by Guardband.
  std::array<double, 2> busy_power{};
  double idle_power = 0.0;         ///< DeviceModel::idle_power
  double halted_idle_power = 0.0;  ///< DeviceModel::halted_idle_power
  /// ErrorRateModel::rates, indexed by Guardband.
  std::array<ErrorRates, 2> rates{};
  double speed_scale = 0.0;  ///< PerfModel::speed_scale, (f / base)^eta
  double time_scale = 0.0;   ///< PerfModel::time_scale, (base / f)^eta

  [[nodiscard]] static ClockState at(const DeviceModel& dev, Mhz f);

  [[nodiscard]] SimTime time_for_flops(double flops, KernelClass k) const {
    return PerfModel::time_at_rate(flops,
                                   gflops[static_cast<std::size_t>(k)]);
  }
  [[nodiscard]] SimTime time_for_bytes(double bytes) const {
    return PerfModel::time_at_bandwidth(bytes, verify_bandwidth);
  }
  [[nodiscard]] double busy(Guardband g) const {
    return busy_power[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const ErrorRates& rates_at(Guardband g) const {
    return rates[static_cast<std::size_t>(g)];
  }
};

/// One ClockState per state of a device model's DVFS grid. The model must
/// outlive the table.
class ClockTable {
 public:
  explicit ClockTable(const DeviceModel& dev);

  [[nodiscard]] const DeviceModel& device() const { return *dev_; }

  /// The grid entry for clock f, or nullptr when f is off the grid.
  [[nodiscard]] const ClockState* state(Mhz f) const;

  // Each accessor reads the grid entry, or calls the defining function for
  // an off-grid clock.
  [[nodiscard]] SimTime time_for_flops(double flops, KernelClass k,
                                       Mhz f) const;
  [[nodiscard]] SimTime time_for_bytes(double bytes, Mhz f) const;
  [[nodiscard]] double busy_power(Mhz f, Guardband g) const;
  [[nodiscard]] double idle_power(Mhz f) const;
  [[nodiscard]] double halted_idle_power(Mhz f) const;
  [[nodiscard]] ErrorRates rates(Mhz f, Guardband g) const;
  [[nodiscard]] double speed_scale(Mhz f) const;
  [[nodiscard]] double time_scale(Mhz f) const;

  /// True when a and b agree bit for bit on every field a table reads
  /// (freq, guardband, power, perf and errors; not name, thermal or
  /// dvfs_latency), so one table serves both.
  [[nodiscard]] static bool reads_same(const DeviceModel& a,
                                       const DeviceModel& b);

 private:
  const DeviceModel* dev_;
  Mhz min_mhz_ = 0;
  Mhz step_mhz_ = 1;
  std::vector<ClockState> states_;
};

}  // namespace bsr::hw
