// Throughput model: how long a kernel takes at a given clock.
//
// Each device advertises an effective GFLOP/s rate per kernel class at its
// base clock; rates scale as (f / f_base)^eta with eta ≈ 1 for compute-bound
// GPU BLAS-3 and slightly below 1 for the partially memory-bound CPU panel.
// Checksum maintenance runs as skinny GEMV-like kernels at a (much) lower
// rate, and checksum verification is a bandwidth-bound pass — this is what
// makes ABFT overhead non-trivial, as the paper measures (Fig. 9).
#pragma once

#include "common/sim_time.hpp"
#include "hw/frequency.hpp"

namespace bsr::hw {

enum class KernelClass {
  Blas3,           ///< TMU / PU: gemm, syrk, trsm on large blocks
  Panel,           ///< PD: getf2 / potf2 / geqr2 panel factorization
  ChecksumUpdate,  ///< skinny checksum-row GEMMs
};
inline constexpr int kNumKernelClasses = 3;

struct PerfModel {
  double blas3_gflops_base = 0.0;
  double panel_gflops_base = 0.0;
  double checksum_gflops_base = 0.0;
  double mem_bandwidth_gbs = 0.0;  ///< for verification passes
  double freq_exponent = 1.0;      ///< eta: rate ∝ (f/f_base)^eta

  /// (f / f_base)^eta: the rate multiplier at clock f. gflops() scales by
  /// it, and the engines multiply times measured at f by it to normalize
  /// them to the base clock.
  [[nodiscard]] double speed_scale(Mhz f, const FrequencyDomain& dom) const;
  /// (f_base / f)^eta: the multiplier that projects a base-clock duration to
  /// clock f (energy::time_at_freq). Not 1 / speed_scale() in floating point.
  [[nodiscard]] double time_scale(Mhz f, const FrequencyDomain& dom) const;

  /// Class k's rate at a clock whose speed_scale() is `speed`.
  [[nodiscard]] double gflops_at(KernelClass k, double speed) const;
  [[nodiscard]] double gflops(KernelClass k, Mhz f, const FrequencyDomain& dom) const;

  /// Verification bandwidth (bytes per second) at clock f; it scales weakly
  /// with clock (the memory system is mostly independent of it).
  [[nodiscard]] double verify_bandwidth(Mhz f, const FrequencyDomain& dom) const;

  /// Duration of `flops` floating-point operations at `gflops` GFLOP/s.
  [[nodiscard]] static SimTime time_at_rate(double flops, double gflops);
  /// Duration of a pass over `bytes` at `bytes_per_s`.
  [[nodiscard]] static SimTime time_at_bandwidth(double bytes,
                                                 double bytes_per_s);

  /// Duration of `flops` floating-point operations of class k at clock f.
  [[nodiscard]] SimTime time_for_flops(double flops, KernelClass k, Mhz f,
                                       const FrequencyDomain& dom) const;

  /// Duration of a bandwidth-bound pass over `bytes` (verification) at
  /// clock f.
  [[nodiscard]] SimTime time_for_bytes(double bytes, Mhz f,
                                       const FrequencyDomain& dom) const;
};

}  // namespace bsr::hw
