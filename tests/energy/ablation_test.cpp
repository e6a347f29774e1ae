// Ablation tests: each BSR ingredient must contribute measurably, and
// disabling all hardware tricks must collapse BSR toward SR.
#include <gtest/gtest.h>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig bsr_at(double r) {
  RunConfig cfg;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = r;
  return cfg;
}

TEST(Ablation, GuardbandIsTheBiggestEnergyLever) {
  const Decomposer dec;
  const RunReport full = dec.run(bsr_at(0.0));
  RunConfig no_gb = bsr_at(0.0);
  no_gb.bsr_use_optimized_guardband = false;
  const RunReport without = dec.run(no_gb);
  // Removing the guardband must cost energy, and a lot of it.
  EXPECT_GT(without.total_energy_j(), full.total_energy_j() * 1.05);
}

TEST(Ablation, OverclockingBuysTheSpeedup) {
  const Decomposer dec;
  const RunReport full = dec.run(bsr_at(0.25));
  RunConfig no_oc = bsr_at(0.25);
  no_oc.bsr_allow_overclocking = false;
  const RunReport without = dec.run(no_oc);
  EXPECT_GT(without.seconds(), full.seconds() * 1.05);
}

TEST(Ablation, NoOverclockingMeansNoAbftEver) {
  const Decomposer dec;
  RunConfig no_oc = bsr_at(0.3);
  no_oc.bsr_allow_overclocking = false;
  const RunReport r = dec.run(no_oc);
  EXPECT_EQ(r.abft.iterations_protected_single, 0);
  EXPECT_EQ(r.abft.iterations_protected_full, 0);
  for (const auto& it : r.trace.iterations) {
    EXPECT_LE(it.gpu_freq, dec.platform().gpu.freq.base_mhz);
    EXPECT_LE(it.cpu_freq, dec.platform().cpu.freq.base_mhz);
  }
}

TEST(Ablation, DvfsOnlyVariantLandsNearSr) {
  // Guardband off + overclocking off leaves bi-directional DVFS with a better
  // predictor: energy should land within a few percent of SR.
  const Decomposer dec;
  RunConfig sr_cfg = bsr_at(0.0);
  sr_cfg.strategy = "sr";
  const RunReport sr = dec.run(sr_cfg);
  RunConfig dvfs_only = bsr_at(0.0);
  dvfs_only.bsr_use_optimized_guardband = false;
  dvfs_only.bsr_allow_overclocking = false;
  const RunReport r = dec.run(dvfs_only);
  EXPECT_NEAR(r.total_energy_j() / sr.total_energy_j(), 1.0, 0.06);
}

TEST(Ablation, EnhancedPredictorNotWorseOnEnergy) {
  const Decomposer dec;
  const RunReport full = dec.run(bsr_at(0.0));
  RunConfig first_iter = bsr_at(0.0);
  first_iter.bsr_use_enhanced_predictor = false;
  const RunReport without = dec.run(first_iter);
  // Worse predictions -> worse (or at best equal) reclamation decisions.
  EXPECT_LE(full.total_energy_j(), without.total_energy_j() * 1.01);
}

TEST(Ablation, FullBsrDominatesEveryAblatedVariant) {
  const Decomposer dec;
  const RunReport full = dec.run(bsr_at(0.0));
  for (int variant = 0; variant < 3; ++variant) {
    RunConfig cfg = bsr_at(0.0);
    if (variant == 0) cfg.bsr_use_optimized_guardband = false;
    if (variant == 1) cfg.bsr_allow_overclocking = false;
    if (variant == 2) cfg.bsr_use_enhanced_predictor = false;
    const RunReport ablated = dec.run(cfg);
    EXPECT_LE(full.total_energy_j(), ablated.total_energy_j() * 1.01)
        << "variant " << variant;
  }
}

}  // namespace
}  // namespace bsr::core
