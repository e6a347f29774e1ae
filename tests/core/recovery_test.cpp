// Recovery-by-recompute: when ABFT detects a pattern it cannot correct, the
// trailing update is rolled back and redone — the "recovery with high
// overhead" path the paper contrasts against sufficient checksum strength.
#include <gtest/gtest.h>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

/// Single-side ABFT on an injected LU solve.
RunConfig injected_single(std::uint64_t seed) {
  RunConfig cfg;
  cfg.factorization = predict::Factorization::LU;
  cfg.n = 1024;
  cfg.b = 32;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.25;
  cfg.fc_desired = 0.999;
  cfg.abft_policy = "single";
  cfg.mode = ExecutionMode::Numeric;
  // The fig09 regime: BSR still overclocks, and 1D errors (uncorrectable
  // by single-side checksums) appear in a fraction of the seeds.
  cfg.error_rate_multiplier = 150.0;
  cfg.seed = seed;
  return cfg;
}

/// Finds a seed where single-side ABFT hits an uncorrectable pattern; the
/// paper's whole point is that such runs exist at these rates.
std::uint64_t find_corrupting_seed(const Decomposer& dec) {
  for (std::uint64_t seed = 1; seed < 60; ++seed) {
    const RunReport r = dec.run(injected_single(seed));
    if (r.abft.uncorrectable > 0 && !r.numeric_correct) return seed;
  }
  return 0;
}

TEST(Recovery, RepairsRunsSingleSideAbftLosesAndChargesTime) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const std::uint64_t seed = find_corrupting_seed(dec);
  ASSERT_NE(seed, 0u) << "no corrupting seed found — rates too low?";

  RunConfig cfg = injected_single(seed);
  const RunReport no_recovery = dec.run(cfg);
  EXPECT_FALSE(no_recovery.numeric_correct);
  EXPECT_EQ(no_recovery.abft.recoveries, 0);
  EXPECT_EQ(no_recovery.recovery_time, SimTime::zero());

  cfg.recover_uncorrectable = true;
  const RunReport recovered = dec.run(cfg);
  EXPECT_TRUE(recovered.numeric_correct) << "residual=" << recovered.residual;
  EXPECT_GT(recovered.abft.recoveries, 0);
  EXPECT_GT(recovered.recovery_time, SimTime::zero());
  EXPECT_GT(recovered.recovery_energy_j, 0.0);
  // Recovery costs show up in the aggregate metrics.
  EXPECT_GT(recovered.seconds(), no_recovery.seconds());
  EXPECT_GT(recovered.total_energy_j(), no_recovery.total_energy_j());
}

TEST(Recovery, NoOpWhenNothingUncorrectable) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig cfg = injected_single(5);
  cfg.recover_uncorrectable = true;
  // Full ABFT corrects everything: recovery never triggers.
  cfg.abft_policy = "full";
  const RunReport r = dec.run(cfg);
  EXPECT_TRUE(r.numeric_correct);
  EXPECT_EQ(r.abft.recoveries, 0);
  EXPECT_EQ(r.recovery_time, SimTime::zero());
}

TEST(Recovery, WorksForCholeskyAndQr) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  for (auto f : {predict::Factorization::Cholesky, predict::Factorization::QR}) {
    bool saw_recovery = false;
    for (std::uint64_t seed = 1; seed < 40 && !saw_recovery; ++seed) {
      RunConfig cfg = injected_single(seed);
      cfg.factorization = f;
      cfg.n = 512;
      cfg.recover_uncorrectable = true;
      const RunReport r = dec.run(cfg);
      if (r.abft.recoveries > 0) {
        saw_recovery = true;
        EXPECT_TRUE(r.numeric_correct)
            << predict::to_string(f) << " residual=" << r.residual;
      }
    }
    EXPECT_TRUE(saw_recovery) << predict::to_string(f);
  }
}

}  // namespace
}  // namespace bsr::core
