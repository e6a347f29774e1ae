// Seeded statistical fault processes and the recovery-cost model — the
// timing-side generalization of fig09's numeric fault injection.
//
// The paper's headline safety claim is that BSR's overclocked critical lane
// stays *safe*: ABFT-OC catches the SDCs the reduced guardband induces, and
// recovering from them costs less than the reclaimed slack is worth. The
// numeric path (fault/injector.hpp) demonstrates that with real corruption on
// bounded matrices; this module supplies the *statistical* counterpart that
// works at paper scale and on the N-device cluster engine:
//
//   * Poisson arrivals whose rate follows the device's SDC table
//     R(f, guardband) (hw/error_model.hpp) — clock/voltage-dependent by
//     construction, so overclocked lanes fault more and lanes at safe
//     clocks do not fault at all;
//   * a clock-independent background rate (cosmic-ray-like 0D upsets that
//     strike even fault-free states);
//   * burst arrivals (one event carries a group of faults) and a per-device
//     hazard factor (some devices are flakier than others), both seeded;
//   * a deterministic fixed-count process replaying the fig09 regime
//     (exactly the configured counts on every exposed iteration).
//
// Each fault is classed 0D/1D/2D like the error model; what happens to it
// depends on the checksum mode active when it strikes (resolve()): corrected
// in place, detected-but-uncorrectable (optionally recovered by rolling the
// panel's trailing update back and recomputing at the base clock), or silent.
// Corrected faults pay Spec::correction_s in-lane; rollbacks pay the
// base-clock recompute of the affected update — both are charged by the
// engines where durations are realized (sched/pipeline.cpp,
// cluster/engine.cpp), so recovery genuinely delays the lane and shifts
// subsequent slack decisions.
//
// Streams derive from (seed, lane, purpose) with the same splitmix64 mixing
// as bsr::derive_cell_seed (var::derive_stream_seed), never from execution
// order across sweep cells, so campaigns are bitwise reproducible at any
// sweep thread count. A default (disabled) Spec is inert: no faults, no
// recovery time, and no random numbers drawn.
#pragma once

#include <cstdint>
#include <string>

#include "abft/checksum.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "hw/error_model.hpp"
#include "var/models.hpp"

namespace bsr::faultcamp {

/// How arrival counts are generated per exposed busy window.
enum class ProcessKind {
  Poisson,  ///< seeded Poisson arrivals at the scaled SDC-table rates
  Fixed,    ///< exactly fixed_d0/d1/d2 faults on every exposed iteration
};

/// All knobs of the fault-campaign subsystem — the `RunConfig::faults` block.
/// The default is fully inert: `enabled = false` produces bit-for-bit the
/// behavior of a build without this module. Timing-only: numeric runs perform
/// real injection (fault/injector.hpp) and reject an enabled block.
struct Spec {
  /// Master switch. False = no faults, no recovery cost, no RNG draws.
  bool enabled = false;

  /// Arrival model: seeded Poisson (the statistical campaign default) or the
  /// deterministic fixed-count replay of the fig09 regime.
  ProcessKind process = ProcessKind::Poisson;

  /// Multiplies the device's SDC-table rates R(f, guardband) for the arrival
  /// process only (exposure compression for reduced-size campaigns, like
  /// fig09's --rate_multiplier — but without re-shaping the world ABFT-OC
  /// and the coverage math observe, which RunConfig::error_rate_multiplier
  /// does). Under ProcessKind::Fixed it scales the fixed per-window counts
  /// (rounded) instead, so a campaign's rate axis means the same thing for
  /// both processes. 0 makes the clock-dependent process inert.
  double rate_multiplier = 1.0;

  /// Clock-independent 0D arrival rate (events per busy second) striking
  /// even fault-free states — upsets ABFT-OC does not anticipate, so
  /// adaptive protection can genuinely miss them.
  double background_rate_per_s = 0.0;

  /// Mean faults carried by one arrival event (>= 1). 1 = plain Poisson;
  /// above 1 each arrival brings 1 + Poisson(burst_mean - 1) faults of its
  /// class (correlated multi-bit upsets).
  double burst_mean = 1.0;

  /// Lognormal sigma of the per-device hazard factor (0 = all devices
  /// equally reliable). Each lane draws one multiplicative factor from its
  /// own stream at construction — some devices are flakier than others.
  double hazard_sigma = 0.0;

  /// ProcessKind::Fixed: 0D faults injected on every iteration whose clock
  /// exposes that class (nonzero 0D table rate at the running frequency —
  /// each class gates on its own rate, so the deterministic replay stays
  /// inside the world ABFT-OC reasons about).
  int fixed_d0 = 1;
  /// 1D faults per 1D-exposed iteration under ProcessKind::Fixed.
  int fixed_d1 = 0;
  /// 2D faults per 2D-exposed iteration under ProcessKind::Fixed.
  int fixed_d2 = 0;

  /// In-lane latency (seconds) per checksum-corrected fault: locating the
  /// mismatched block and re-solving the affected element/line from the
  /// checksum relation, charged at the lane's current clock.
  double correction_s = 0.0;

  /// Recover detected-but-uncorrectable faults by rolling the panel's
  /// trailing update back and recomputing it (with its checksum work) at the
  /// device's base clock — the statistical counterpart of
  /// RunConfig::recover_uncorrectable. False leaves them unrecovered
  /// (detected, but the corruption stands).
  bool rollback = true;

  /// Root seed of all fault streams; 0 = derive from the run's seed
  /// (RunConfig::seed). FaultCampaign varies exactly this per trial so the
  /// no-fault timing world stays fixed while fault realizations differ.
  std::uint64_t seed = 0;
};

/// Throws std::invalid_argument (message prefixed "faults:") when any field
/// is out of range: negative rates/sigma/correction latency, burst_mean < 1,
/// negative fixed counts, or an infinite double.
void validate(const Spec& spec);

/// Appends the canonical "key=value;"-style fragment of every field to
/// `out`, for RunConfig::fingerprint(). A disabled spec collapses to "flt=0"
/// regardless of the other fields (they have no effect), so
/// enabling-and-disabling round-trips to the same cache key.
void append_fingerprint_fragment(std::string& out, const Spec& spec);

/// Fault counts by propagation class (mirrors hw::ErrType).
struct FaultCounts {
  std::int64_t d0 = 0;  ///< standalone-element faults
  std::int64_t d1 = 0;  ///< row/column faults
  std::int64_t d2 = 0;  ///< multi-row/column faults
  [[nodiscard]] std::int64_t total() const { return d0 + d1 + d2; }
};

/// What became of one busy window's faults under the active checksum mode.
struct Resolution {
  FaultCounts injected;             ///< the sampled counts, by class
  std::int64_t corrected_d0 = 0;    ///< repaired in place (0D)
  std::int64_t corrected_d1 = 0;    ///< repaired in place (1D, full mode)
  std::int64_t recovered = 0;       ///< uncorrectable, recovered by rollback
  std::int64_t unrecovered = 0;     ///< silent, or rollback disabled
  std::int64_t uncorrectable = 0;   ///< detected beyond in-place repair
  int rollbacks = 0;                ///< update redos triggered (0 or 1)

  [[nodiscard]] std::int64_t corrected() const {
    return corrected_d0 + corrected_d1;
  }
};

/// Classifies sampled counts under the checksum mode that protected the
/// window: None leaves everything silent; SingleSide corrects 0D and detects
/// 1D/2D without repair; Full corrects 0D+1D and detects 2D. Detected
/// uncorrectable faults become one rollback (when `rollback`) — the redo
/// covers every one of them — or stay unrecovered.
Resolution resolve(const FaultCounts& counts, abft::ChecksumMode mode,
                   bool rollback);

/// One lane's seeded fault process. Default-constructed (or built from a
/// disabled Spec) it is inert: sample() returns zero counts and draws
/// nothing.
class FaultProcess {
 public:
  FaultProcess() = default;

  /// `run_seed` is the fallback root when spec.seed == 0; `lane` indexes the
  /// device (matching var::LaneVariability's lane numbering) so lanes get
  /// decorrelated streams and their own hazard draw.
  FaultProcess(const Spec& spec, std::uint64_t run_seed, int lane);

  /// True when the process can produce faults at all.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The lane's fixed hazard multiplier (1.0 unless hazard_sigma > 0).
  [[nodiscard]] double hazard() const { return hazard_; }

  /// Samples the fault counts striking a busy window of length `busy` run at
  /// table rates `rates` (advances the lane's streams — call exactly once
  /// per exposed window, in event order).
  FaultCounts sample(const hw::ErrorRates& rates, SimTime busy);

 private:
  [[nodiscard]] std::int64_t arrivals(double mean);

  bool enabled_ = false;
  ProcessKind kind_ = ProcessKind::Poisson;
  double mult_ = 1.0;
  double background_ = 0.0;
  double burst_mean_ = 1.0;
  double hazard_ = 1.0;
  std::int64_t fixed_d0_ = 0;
  std::int64_t fixed_d1_ = 0;
  std::int64_t fixed_d2_ = 0;
  Rng arrival_rng_;
  Rng burst_rng_;
};

}  // namespace bsr::faultcamp
