// End-to-end integration: the whole stack (strategies, pipeline, predictors,
// ABFT, fault injection, numerics) exercised through the public facade.
#include <gtest/gtest.h>

#include "core/decomposer.hpp"
#include "energy/pareto.hpp"

namespace bsr::core {
namespace {

TEST(EndToEnd, FullMatrixOfStrategiesAndFactorizations) {
  const Decomposer dec;
  for (auto f : {predict::Factorization::Cholesky, predict::Factorization::LU,
                 predict::Factorization::QR}) {
    RunConfig base;
    base.factorization = f;
    base.n = 16384;
    base.b = 512;
    base.strategy = "original";
    const RunReport org = dec.run(base);
    for (const char* s : {"r2h", "sr", "bsr"}) {
      RunConfig cfg = base;
      cfg.strategy = s;
      const RunReport r = dec.run(cfg);
      EXPECT_GT(r.energy_saving_vs(org), 0.0)
          << predict::to_string(f) << "/" << s;
      EXPECT_LT(r.seconds(), org.seconds() * 1.06)
          << predict::to_string(f) << "/" << s;
    }
  }
}

TEST(EndToEnd, ParetoSweepIsMonotoneInPerformance) {
  // Fig. 11: raising r buys performance.
  const Decomposer dec;
  double prev_time = 1e300;
  for (double r : {0.0, 0.1, 0.2, 0.3}) {
    RunConfig cfg;
    cfg.n = 30720;
    cfg.b = 512;
    cfg.strategy = "bsr";
    cfg.reclamation_ratio = r;
    const double t = dec.run(cfg).seconds();
    EXPECT_LT(t, prev_time * 1.005) << "r=" << r;
    prev_time = t;
  }
}

TEST(EndToEnd, MaxPerformanceImprovementIsSubstantial) {
  // Paper: up to 1.38x-1.51x vs Original with equal-or-less energy.
  const Decomposer dec;
  RunConfig cfg;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.strategy = "original";
  const RunReport org = dec.run(cfg);
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.3;
  const RunReport bsr = dec.run(cfg);
  EXPECT_GT(bsr.speedup_vs(org), 1.1);
}

TEST(EndToEnd, SmallMatricesSaveLess) {
  // Fig. 13: energy saving shrinks for small inputs.
  const Decomposer dec;
  auto saving_at = [&](std::int64_t n) {
    RunConfig cfg;
    cfg.n = n;
    cfg.b = tuned_block(n);  // the paper tunes the block size per input size
    cfg.strategy = "original";
    const RunReport org = dec.run(cfg);
    cfg.strategy = "bsr";
    return dec.run(cfg).energy_saving_vs(org);
  };
  EXPECT_GT(saving_at(30720), saving_at(5120));
}

TEST(EndToEnd, NumericBsrRunMatchesTimingBsrSchedule) {
  // The numeric path must not perturb the timing path: same options give the
  // same trace whether or not real math runs alongside.
  const Decomposer dec;
  RunConfig cfg;
  cfg.factorization = predict::Factorization::LU;
  cfg.n = 256;
  cfg.b = 32;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.2;
  cfg.mode = ExecutionMode::TimingOnly;
  const RunReport timing = dec.run(cfg);
  cfg.mode = ExecutionMode::Numeric;
  const RunReport numeric = dec.run(cfg);
  ASSERT_EQ(timing.trace.iterations.size(), numeric.trace.iterations.size());
  EXPECT_EQ(timing.trace.total_time, numeric.trace.total_time);
  EXPECT_DOUBLE_EQ(timing.total_energy_j(), numeric.total_energy_j());
}

TEST(EndToEnd, AnalyticRStarAgreesWithSweptKnee) {
  // The Newton/bisection r* from the closed forms should sit near the
  // empirical energy-neutral point of a BSR r-sweep.
  const Decomposer dec;
  RunConfig cfg;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.strategy = "original";
  const RunReport org = dec.run(cfg);
  const double r_star =
      energy::average_energy_neutral_r(org.trace, dec.platform());
  EXPECT_GT(r_star, 0.05);
  EXPECT_LT(r_star, 0.8);
  // At r just below r*, BSR should still not exceed Original's energy.
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = std::max(0.0, r_star - 0.1);
  const RunReport near_knee = dec.run(cfg);
  EXPECT_LE(near_knee.total_energy_j(), org.total_energy_j() * 1.02);
}

}  // namespace
}  // namespace bsr::core
