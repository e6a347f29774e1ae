// Paper-claims regression suite: each test pins one published qualitative
// claim to the simulator so refactors cannot silently break the reproduction.
// Quantitative bands are generous — the goal is shape, not absolute numbers.
#include <gtest/gtest.h>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig paper_cfg(predict::Factorization f, const std::string& strategy,
                    double r = 0.0) {
  RunConfig cfg;
  cfg.factorization = f;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.strategy = strategy;
  cfg.reclamation_ratio = r;
  return cfg;
}

class PaperEnergySaving : public ::testing::TestWithParam<predict::Factorization> {
};

TEST_P(PaperEnergySaving, BsrSavesTwentyToFortyPercent) {
  // Fig. 12(a): 28.2%-30.7% at n=30720 on the authors' testbed; we accept a
  // generous band around that.
  const Decomposer dec;
  const RunReport org = dec.run(paper_cfg(GetParam(), "original"));
  const RunReport bsr = dec.run(paper_cfg(GetParam(), "bsr"));
  const double saving = bsr.energy_saving_vs(org);
  EXPECT_GT(saving, 0.18) << predict::to_string(GetParam());
  EXPECT_LT(saving, 0.45) << predict::to_string(GetParam());
}

TEST_P(PaperEnergySaving, BsrBeatsSrByMeaningfulMargin) {
  // Fig. 11/12: BSR saves 9.6%-11.7% more than SR (of total energy).
  const Decomposer dec;
  const RunReport org = dec.run(paper_cfg(GetParam(), "original"));
  const RunReport sr = dec.run(paper_cfg(GetParam(), "sr"));
  const RunReport bsr = dec.run(paper_cfg(GetParam(), "bsr"));
  const double margin = bsr.energy_saving_vs(org) - sr.energy_saving_vs(org);
  EXPECT_GT(margin, 0.02) << predict::to_string(GetParam());
  EXPECT_LT(margin, 0.25) << predict::to_string(GetParam());
}

TEST_P(PaperEnergySaving, Ed2pOrderingHolds) {
  // Fig. 12(b): BSR reduces ED2P more than SR more than R2H.
  const Decomposer dec;
  const RunReport org = dec.run(paper_cfg(GetParam(), "original"));
  const RunReport r2h = dec.run(paper_cfg(GetParam(), "r2h"));
  const RunReport sr = dec.run(paper_cfg(GetParam(), "sr"));
  const RunReport bsr = dec.run(paper_cfg(GetParam(), "bsr"));
  EXPECT_GT(bsr.ed2p_reduction_vs(org), sr.ed2p_reduction_vs(org));
  EXPECT_GT(sr.ed2p_reduction_vs(org), r2h.ed2p_reduction_vs(org));
  EXPECT_GT(r2h.ed2p_reduction_vs(org), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllFactorizations, PaperEnergySaving,
                         ::testing::Values(predict::Factorization::Cholesky,
                                           predict::Factorization::LU,
                                           predict::Factorization::QR));

TEST(PaperClaims, SlackFlipsFromCpuToGpuSide) {
  // Fig. 2 / Fig. 10: CPU-side slack at iteration 2, GPU-side at iteration 50.
  const Decomposer dec;
  const RunReport org =
      dec.run(paper_cfg(predict::Factorization::LU, "original"));
  EXPECT_GT(org.trace.iterations[2].slack.seconds(), 0.0);
  EXPECT_LT(org.trace.iterations[50].slack.seconds(), 0.0);
}

TEST(PaperClaims, AdaptiveAbftFrequencyStaircase) {
  // Fig. 9 narrative (r=0.25): fault-free clocks early; single-side in a
  // middle band; full checksums at the top clocks late.
  const Decomposer dec;
  const RunReport r = dec.run(
      paper_cfg(predict::Factorization::LU, "bsr", 0.25));
  const auto& iters = r.trace.iterations;
  // Find the first protected iteration; everything before must be unprotected.
  int first_protected = -1;
  for (std::size_t k = 0; k < iters.size(); ++k) {
    if (iters[k].abft_mode != abft::ChecksumMode::None) {
      first_protected = static_cast<int>(k);
      break;
    }
  }
  ASSERT_GT(first_protected, 10) << "protection must start late";
  // Full checksums (if any) must not precede single-side protection.
  int first_full = -1;
  int first_single = -1;
  for (std::size_t k = 0; k < iters.size(); ++k) {
    if (first_single < 0 &&
        iters[k].abft_mode == abft::ChecksumMode::SingleSide) {
      first_single = static_cast<int>(k);
    }
    if (first_full < 0 && iters[k].abft_mode == abft::ChecksumMode::Full) {
      first_full = static_cast<int>(k);
    }
  }
  if (first_full >= 0 && first_single >= 0) {
    EXPECT_LT(first_single, first_full);
  }
}

TEST(PaperClaims, AdaptiveOverheadBelowAlwaysOnFull) {
  // Fig. 9: adaptive ABFT ~4% overhead vs ~12% for always-on full checksums.
  const Decomposer dec;
  RunConfig cfg = paper_cfg(predict::Factorization::LU, "bsr", 0.25);
  cfg.abft_policy = "none";
  const RunReport none = dec.run(cfg);
  cfg.abft_policy = "full";
  const RunReport full = dec.run(cfg);
  cfg.abft_policy = "adaptive";
  const RunReport adaptive = dec.run(cfg);
  const double oh_full = full.seconds() / none.seconds() - 1.0;
  const double oh_adaptive = adaptive.seconds() / none.seconds() - 1.0;
  EXPECT_LT(oh_adaptive, 0.6 * oh_full);
  EXPECT_GT(oh_full, 0.02);
  EXPECT_LT(oh_full, 0.25);
}

TEST(PaperClaims, ParetoFrontierEnergyRisesWithR) {
  // Fig. 11: along the front, energy consumption grows as r buys performance.
  const Decomposer dec;
  double prev_energy = 0.0;
  for (double r : {0.0, 0.15, 0.3}) {
    const RunReport rep = dec.run(
        paper_cfg(predict::Factorization::Cholesky, "bsr", r));
    EXPECT_GT(rep.total_energy_j(), prev_energy);
    prev_energy = rep.total_energy_j();
  }
}

TEST(PaperClaims, EnergySavingGrowsWithMatrixSizeThenSaturates) {
  // Fig. 13 shape: small matrices are hard to save on.
  const Decomposer dec;
  std::vector<double> savings;
  for (std::int64_t n : {5120, 10240, 20480, 30720}) {
    RunConfig cfg = paper_cfg(predict::Factorization::LU, "original");
    cfg.n = n;
    cfg.b = tuned_block(n);
    const RunReport org = dec.run(cfg);
    cfg.strategy = "bsr";
    savings.push_back(dec.run(cfg).energy_saving_vs(org));
  }
  EXPECT_LT(savings.front(), savings.back());
  for (double s : savings) EXPECT_GT(s, 0.0);
}

}  // namespace
}  // namespace bsr::core
