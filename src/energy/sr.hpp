// Single-directional Slack Reclamation (GreenLA [7]) — the prior
// state-of-the-art baseline the paper compares against.
//
// Profiles the first iteration, predicts each later iteration's task times via
// the Table-2 complexity ratios (first-iteration profiling of the pipeline's
// slack history), and slows the *non-critical-path* processor via DVFS so its
// task stretches into the slack. Stays inside the default guardband: no
// undervolting, no overclocking, no ABFT. Never raises a clock above base.
#pragma once

#include "energy/strategy.hpp"

namespace bsr::energy {

class SlackReclamationStrategy final : public Strategy {
 public:
  [[nodiscard]] const char* name() const override { return "SR"; }
  sched::IterationDecision decide(int k,
                                  const sched::HybridPipeline& pipe) override;
};

}  // namespace bsr::energy
