// The enums behind bsr::RunConfig's typed fields, plus the block-size tuner.
// The run configuration itself is bsr::RunConfig (include/bsr/run_config.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "energy/strategy.hpp"
#include "predict/workload.hpp"

namespace bsr::core {

/// Which energy-management strategy drives per-iteration clock decisions.
using energy::StrategyKind;

/// TimingOnly runs the full scheduling/strategy/prediction machinery against
/// the platform model (paper-scale inputs in milliseconds); Numeric
/// additionally executes the real factorization with real ABFT and real fault
/// injection (bounded input sizes).
enum class ExecutionMode { TimingOnly, Numeric };

/// How the ABFT protection level is chosen each iteration. Adaptive is the
/// paper's Algorithm 1; the Force* policies reproduce the always-on baselines
/// of Fig. 9.
enum class AbftPolicy {
  Adaptive,     ///< Algorithm 1: cheapest scheme meeting fc_desired per iter.
  ForceNone,    ///< No protection (fastest; SDCs propagate undetected).
  ForceSingle,  ///< Single-side checksums every iteration.
  ForceFull,    ///< Full checksums every iteration (strongest, costliest).
};

/// Performance-tuned block size for a given matrix order, mirroring the
/// paper's "block size tuned for performance": roughly n/60 blocks rounded to
/// the 64-grid and clamped to [64, 512] (512 at the paper's n = 30720).
std::int64_t tuned_block(std::int64_t n);

/// Which BSR-only RunConfig knobs a run reads, by its canonical strategies()
/// key. The built-in non-BSR strategies ("original", "r2h", "sr") provably
/// ignore them, except fc_desired on cluster runs (devices >= 1), where
/// per-device ABFT-OC consults it under every strategy. BSR and
/// registry-only strategies read them all: their factories receive the
/// whole config. RunConfig::fingerprint() and Sweep's baselines reset the
/// knobs a run does not read to their defaults.
struct BsrKnobUse {
  bool knobs;  ///< reclamation_ratio and the three bsr_* switches
  bool fc;     ///< fc_desired
};
BsrKnobUse bsr_knob_use(const std::string& strategy_key, int devices);

const char* to_string(StrategyKind s);
const char* to_string(ExecutionMode m);

predict::Factorization factorization_from_string(const std::string& s);

}  // namespace bsr::core
