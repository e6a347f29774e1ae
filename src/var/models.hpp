// Seeded execution-variability models — the stochastic regime the paper's
// predictors are built to survive (§3.2.1, Fig. 8).
//
// The simulator is otherwise exactly repeatable, which puts every predictor in
// a world the paper explicitly argues is unrealistic: on real machines kernel
// efficiency drifts as the trailing matrix shrinks, transfers jitter, DVFS
// transitions take variable time and land on coarse P-state grids, and
// sustained boosts hit thermal limits. This module supplies those effects as
// composable, splitmix64-seeded models:
//
//   * drift_walk()       — per-device multiplicative efficiency random walk
//                          (reflected at a cap so it cannot diverge);
//   * transfer jitter    — lognormal factor on every realized transfer;
//   * DVFS variability   — lognormal factor on transition latency, plus
//                          quantization of requested clocks to a coarse grid;
//   * ThermalThrottle    — a sustained-boost budget per device: long boosts
//                          drain it, running at/below base refills it, and an
//                          exhausted budget pins the device to its base clock
//                          until half the budget has recovered.
//
// Everything is *sampled* from streams derived with the same splitmix64
// mixing as bsr::derive_cell_seed (per lane, per purpose) and *applied* where
// durations are realized — sched/pipeline.cpp on the single node,
// cluster/engine.cpp at scale — so a run is bitwise reproducible from
// (config, seed) at any sweep thread count. A default (disabled) Spec makes
// every model inert: factors are exactly 1.0, clocks pass through untouched,
// and no random numbers are drawn.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "hw/frequency.hpp"

namespace bsr::var {

/// All knobs of the variability subsystem. The default is fully inert:
/// `enabled = false` produces bit-for-bit the behavior of a build without
/// this module. With `enabled = true`, each field turns on one model; a field
/// left at 0 keeps that model inert, so effects compose a la carte.
struct Spec {
  /// Master switch. False = no perturbation of any kind (and no RNG draws).
  bool enabled = false;

  /// Per-iteration sigma of the per-device multiplicative efficiency random
  /// walk applied to compute durations (0 = no drift). This is the knob
  /// bench_fig08 sweeps: GreenLA's first-iteration predictor accumulates
  /// error linearly in the walk's excursion while the enhanced predictor
  /// tracks it.
  double drift = 0.0;
  /// Reflective bound on the walk's |log factor|: the drift factor stays
  /// within [exp(-cap), exp(+cap)].
  double drift_cap = 0.35;

  /// Lognormal sigma applied to every realized transfer duration
  /// (host<->device panel traffic, cluster broadcast legs, peer hops).
  double transfer_jitter = 0.0;

  /// Lognormal sigma applied to every realized DVFS transition latency.
  double dvfs_jitter = 0.0;
  /// When > 0, requested clocks snap to a grid of this pitch *anchored at
  /// the device's base clock*, truncating toward base (real devices expose
  /// coarse P-states; the strategy's fine-grained request is not always
  /// grantable). Base itself is always on the grid, so a lane that never
  /// requests a change keeps running at exactly base.
  hw::Mhz freq_quantum_mhz = 0;

  /// Sustained-boost budget per device, in seconds of above-base busy time
  /// (0 = unlimited boost). BSR's overclocked critical lane pays for long
  /// boosts: an exhausted budget pins the lane to base until it recovers.
  double boost_budget_s = 0.0;
  /// Budget seconds regained per second of at/below-base (busy or idle) time.
  double boost_recovery = 0.5;

  /// Root seed of all variability streams; 0 = derive from the run's seed
  /// (RunConfig::seed), which is what sweeps want — per-cell seeds then vary
  /// exactly like Sweep's trial_axis cells do.
  std::uint64_t seed = 0;
};

/// Throws std::invalid_argument (message prefixed "variability:") when any
/// field is out of range: negative sigmas/budget/quantum, drift_cap <= 0,
/// boost_recovery <= 0, or an infinite double.
void validate(const Spec& spec);

/// Appends the canonical "key=value;"-style fragment of every field to
/// `out`, for RunConfig::fingerprint(). A disabled spec collapses to "var=0"
/// regardless of the other fields (they have no effect), so
/// enabling-and-disabling round-trips to the same cache key.
void append_fingerprint_fragment(std::string& out, const Spec& spec);

/// splitmix64 stream derivation — the same mixing as bsr::derive_cell_seed,
/// so variability streams are decorrelated from each other and from sweep
/// cell seeds by construction. Depends only on (root, stream).
std::uint64_t derive_stream_seed(std::uint64_t root, std::uint64_t stream);

/// A reflected multiplicative random walk of `steps` factors: entry 0 is 1.0
/// (the profiling reference iteration is clean), entry k multiplies entry
/// k-1 by exp(normal(0, sigma)) with the log factor reflected into
/// [-cap, +cap]. sigma <= 0 returns all-ones.
std::vector<double> drift_walk(std::uint64_t seed, int steps, double sigma,
                               double cap);

/// Deterministic sustained-boost budget (no RNG): above-base busy seconds
/// drain the budget, at/below-base time refills it at `recovery` seconds per
/// second, and once drained the device is pinned to base until the budget
/// recovers to half its capacity (hysteresis, so the lane does not flap).
class ThermalThrottle {
 public:
  ThermalThrottle() = default;
  ThermalThrottle(double budget_s, double recovery)
      : capacity_s_(budget_s), recovery_(recovery), budget_s_(budget_s) {}

  /// True when the model is engaged at all (budget_s > 0 at construction).
  [[nodiscard]] bool active() const { return capacity_s_ > 0.0; }
  [[nodiscard]] bool throttled() const { return throttled_; }
  [[nodiscard]] double budget_s() const { return budget_s_; }

  /// The clock actually granted for a request: `requested` while budget
  /// remains, `base_mhz` while throttled.
  [[nodiscard]] hw::Mhz admit(hw::Mhz requested, hw::Mhz base_mhz);

  /// Settles one scheduling window: `busy_s` seconds run at `granted`
  /// (draining when above base), plus `idle_s` seconds of recovery time.
  void account(hw::Mhz granted, hw::Mhz base_mhz, double busy_s,
               double idle_s);

 private:
  double capacity_s_ = 0.0;
  double recovery_ = 0.5;
  double budget_s_ = 0.0;
  bool throttled_ = false;
};

/// One lane's composed variability state: the drift walk over its iterations,
/// its jitter streams, and its thermal budget. Default-constructed (or built
/// from a disabled Spec) it is inert: every factor is exactly 1.0, clocks
/// pass through unchanged, and nothing is sampled.
class LaneVariability {
 public:
  LaneVariability() = default;

  /// `run_seed` is the fallback root when spec.seed == 0; `lane` indexes the
  /// device (0 = host/CPU) so lanes get decorrelated streams; `iters` sizes
  /// the drift walk; `base_mhz` anchors the thermal throttle.
  LaneVariability(const Spec& spec, std::uint64_t run_seed, int lane,
                  int iters, hw::Mhz base_mhz);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Multiplicative efficiency factor on compute durations at iteration k.
  [[nodiscard]] double compute_factor(int k) const;

  /// Multiplicative factor on the next realized transfer (advances the
  /// lane's jitter stream — call exactly once per transfer).
  double transfer_factor();

  /// The realized latency of one DVFS transition whose nominal cost is
  /// `nominal` (advances the lane's DVFS jitter stream). Zero stays zero.
  SimTime dvfs_latency(SimTime nominal);

  /// The clock actually granted for `requested`: quantized to the Spec's
  /// P-state grid, then admitted through the thermal throttle, then clamped
  /// to the domain.
  [[nodiscard]] hw::Mhz admit_clock(hw::Mhz requested,
                                    const hw::FrequencyDomain& dom,
                                    bool optimized_guardband);

  /// Thermal accounting for one scheduling window (see ThermalThrottle).
  void account(hw::Mhz granted, double busy_s, double idle_s);

  [[nodiscard]] const ThermalThrottle& throttle() const { return throttle_; }

 private:
  bool enabled_ = false;
  hw::Mhz base_mhz_ = 0;
  hw::Mhz quantum_ = 0;
  double transfer_sigma_ = 0.0;
  double dvfs_sigma_ = 0.0;
  std::vector<double> drift_;
  Rng transfer_rng_;
  Rng dvfs_rng_;
  ThermalThrottle throttle_;
};

}  // namespace bsr::var
