// Platform profile: the full simulated CPU-GPU heterogeneous system.
//
// DeviceModel bundles one processor's frequency domain, guardband curve,
// power, throughput, error-rate, and thermal models. PlatformProfile pairs a
// CPU and a GPU with a transfer link and DVFS latencies. `paper_default()` is
// calibrated to the paper's testbed (Table 3: i7-9700K + RTX 2080 Ti) so the
// slack pattern, crossover iteration, and energy-saving ordering reproduce the
// published shapes; see DESIGN.md for the calibration rationale.
#pragma once

#include <string>

#include "hw/dvfs.hpp"
#include "hw/error_model.hpp"
#include "hw/perf_model.hpp"
#include "hw/power_model.hpp"
#include "hw/thermal.hpp"
#include "hw/transfer.hpp"

namespace bsr::hw {

/// The two lanes of the single-node platform.
enum class DeviceId { Cpu = 0, Gpu = 1 };

struct DeviceModel {
  std::string name;
  FrequencyDomain freq;
  GuardbandModel guardband;
  PowerModel power;
  PerfModel perf;
  ErrorRateModel errors;
  ThermalModel thermal;
  SimTime dvfs_latency;

  [[nodiscard]] double busy_power(Mhz f, Guardband g) const {
    return power.busy_power(f, g, guardband, freq);
  }
  [[nodiscard]] double idle_power(Mhz f) const {
    return power.idle_power(f, freq);
  }
  /// Idle power of a lane whose strategy "halted" it (Race-to-Halt): the
  /// drop to the floor state is hardware-governed, so a fraction of every
  /// slack period still burns current-clock idle power while the governor
  /// observes idleness. Both engines charge halted lanes through it.
  [[nodiscard]] double halted_idle_power(Mhz current) const;
  [[nodiscard]] double efficiency_gflops_per_watt(Mhz f, Guardband g) const {
    return perf.gflops(KernelClass::Blas3, f, freq) / busy_power(f, g);
  }
  [[nodiscard]] Mhz fault_free_max() const { return errors.fault_free_max(freq); }
  [[nodiscard]] DvfsController make_dvfs() const {
    return DvfsController(freq, dvfs_latency);
  }
};

struct PlatformProfile {
  DeviceModel cpu;
  DeviceModel gpu;
  TransferModel link;

  /// Calibrated to the paper's i7-9700K + RTX 2080 Ti testbed.
  static PlatformProfile paper_default();

  /// A deliberately slack-heavy small platform used by a few unit tests.
  static PlatformProfile test_small();

  /// paper_default with all throughputs divided by `slowdown` (default 150):
  /// a reduced-size matrix then occupies the devices for paper-scale
  /// durations, so DVFS latencies, fault exposure windows, and the adaptive
  /// ABFT staircase behave as they do at n = 30720 while the *numerics* stay
  /// small enough to execute for real. Used by the numeric-mode experiments
  /// (Fig. 9) and their tests.
  static PlatformProfile numeric_demo(double slowdown = 150.0);
};

}  // namespace bsr::hw
