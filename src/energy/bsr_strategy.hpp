// Bi-directional Slack Reclamation — paper Algorithm 2, the core contribution.
//
// Per iteration: predict task times with the enhanced predictor, split the
// predicted slack with the reclamation ratio r — speed the critical-path
// processor up (overclocking under the optimized guardband, ABFT-protected
// when the clock exceeds the fault-free limit) and slow the non-critical-path
// processor down (DVFS) — guard against projected performance loss, then ask
// Algorithm 1 (ABFT-OC) for the protection level matching the final GPU clock.
//
// The three ingredient switches exist for the ablation study
// (bench_ablation): disabling any one of them degrades BSR toward the prior
// art — no guardband ≈ bi-directional DVFS only; no overclocking ≈ SR with a
// better predictor; first-iteration predictor ≈ SR's prediction quality.
#pragma once

#include "abft/adaptive.hpp"
#include "abft/coverage.hpp"
#include "energy/strategy.hpp"

namespace bsr::energy {

struct BsrConfig {
  double reclamation_ratio = 0.0;  ///< r: 0 = max energy saving, higher = faster
  double fc_desired = abft::kFullCoverageThreshold;

  // Ablation switches (all on = the paper's BSR).
  bool use_optimized_guardband = true;
  bool allow_overclocking = true;
  bool use_enhanced_predictor = true;
};

class BsrStrategy final : public Strategy {
 public:
  explicit BsrStrategy(BsrConfig config) : config_(config) {}

  [[nodiscard]] const char* name() const override { return "BSR"; }
  sched::IterationDecision decide(int k,
                                  const sched::HybridPipeline& pipe) override;

  [[nodiscard]] const BsrConfig& config() const { return config_; }

 private:
  BsrConfig config_;
};

}  // namespace bsr::energy
