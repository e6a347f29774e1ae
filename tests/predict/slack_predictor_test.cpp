#include "predict/slack_history.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace bsr::predict {
namespace {

WorkloadModel lu() { return {Factorization::LU, 16384, 512, 8}; }

/// Synthetic "ground truth": duration proportional to complexity with an
/// efficiency drift that grows over the run (what real kernels do).
double true_time(const WorkloadModel& w, OpKind op, int k, double drift) {
  const double progress =
      static_cast<double>(k) / static_cast<double>(w.num_iterations() - 1);
  return w.op_complexity(op, k) * 1e-11 * (1.0 + drift * progress * progress);
}

TEST(FirstIterationPredictor, ExactWhenEfficiencyConstant) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  p.record(OpKind::TMU, 0, true_time(w, OpKind::TMU, 0, 0.0));
  for (int k = 1; k < w.num_iterations() - 1; ++k) {
    EXPECT_NEAR(p.predict(OpKind::TMU, k, false),
                true_time(w, OpKind::TMU, k, 0.0),
                1e-9 * true_time(w, OpKind::TMU, k, 0.0))
        << k;
  }
}

TEST(FirstIterationPredictor, ZeroWithoutProfile) {
  const WorkloadTable table(lu());
  SlackHistory p(table);
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 5, false), 0.0);
}

TEST(EnhancedPredictor, ExactWhenEfficiencyConstant) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  for (int k = 0; k < 6; ++k) {
    p.record(OpKind::TMU, k, true_time(w, OpKind::TMU, k, 0.0));
  }
  EXPECT_NEAR(p.predict(OpKind::TMU, 6, true),
              true_time(w, OpKind::TMU, 6, 0.0), 1e-9);
}

TEST(EnhancedPredictor, TracksEfficiencyDriftBetterThanFirstIteration) {
  const WorkloadModel w = lu();
  const double drift = 0.25;
  const WorkloadTable table(w);
  SlackHistory history(table);
  double first_err_late = 0.0;
  double enhanced_err_late = 0.0;
  int late_count = 0;
  const int iters = w.num_iterations();
  for (int k = 0; k < iters - 1; ++k) {
    const double t = true_time(w, OpKind::TMU, k, drift);
    history.record(OpKind::TMU, k, t);
    if (k + 1 < iters - 1) {
      const double truth = true_time(w, OpKind::TMU, k + 1, drift);
      if (k + 1 > (2 * iters) / 3) {
        first_err_late +=
            std::abs(history.predict(OpKind::TMU, k + 1, false) - truth) /
            truth;
        enhanced_err_late +=
            std::abs(history.predict(OpKind::TMU, k + 1, true) - truth) /
            truth;
        ++late_count;
      }
    }
  }
  ASSERT_GT(late_count, 0);
  // Paper Fig. 8: first-iteration error accumulates (~11% late), enhanced
  // stays low (~4%).
  EXPECT_GT(first_err_late / late_count, 2.0 * enhanced_err_late / late_count);
  EXPECT_LT(enhanced_err_late / late_count, 0.05);
}

TEST(EnhancedPredictor, RobustToNoisyProfiles) {
  const WorkloadModel w = lu();
  Rng rng(1);
  const WorkloadTable table(w);
  SlackHistory p(table);
  for (int k = 0; k < 10; ++k) {
    const double noise = std::exp(rng.normal(0.0, 0.05));
    p.record(OpKind::TMU, k, true_time(w, OpKind::TMU, k, 0.0) * noise);
  }
  const double truth = true_time(w, OpKind::TMU, 10, 0.0);
  // The weighted 4-neighbor average smooths 5% noise well below 5% error.
  EXPECT_NEAR(p.predict(OpKind::TMU, 10, true), truth, 0.05 * truth);
}

TEST(EnhancedPredictor, HandlesMissingNeighbors) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  p.record(OpKind::TMU, 0, true_time(w, OpKind::TMU, 0, 0.0));
  // k=8 with only iteration 0 profiled: falls back to ratio extrapolation.
  const double pred = p.predict(OpKind::TMU, 8, true);
  EXPECT_NEAR(pred, true_time(w, OpKind::TMU, 8, 0.0), 1e-9);
}

TEST(EnhancedPredictor, UsesPartialWindowEarly) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  p.record(OpKind::PD, 0, true_time(w, OpKind::PD, 0, 0.0));
  p.record(OpKind::PD, 1, true_time(w, OpKind::PD, 1, 0.0));
  // Only two neighbors available at k=2; weights renormalize.
  EXPECT_NEAR(p.predict(OpKind::PD, 2, true), true_time(w, OpKind::PD, 2, 0.0),
              1e-9);
}

TEST(EnhancedPredictor, FallbackUsesMostRecentKnownPoint) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  // Iterations 0 and 3 profiled with *different* efficiencies; the window
  // {5, 6, 7, 8} at k=9 is empty, so the fallback must ratio-extrapolate
  // from the most recent known point (3) — not from iteration 0.
  const double t0 = w.op_complexity(OpKind::TMU, 0) * 1e-11;
  const double t3 = w.op_complexity(OpKind::TMU, 3) * 1e-11 * 1.5;
  p.record(OpKind::TMU, 0, t0);
  p.record(OpKind::TMU, 3, t3);
  const double expected = w.complexity_ratio(OpKind::TMU, 3, 9) * t3;
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 9, true), expected);
}

TEST(EnhancedPredictor, SingleNeighborWindowAtKOne) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  // k=1 has exactly one history entry: the 1/2 weight renormalizes to 1 and
  // the prediction is pure ratio extrapolation from iteration 0.
  const double t0 = 3.25e-3;
  p.record(OpKind::TMU, 0, t0);
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 1, true),
                   w.complexity_ratio(OpKind::TMU, 0, 1) * t0);
}

TEST(EnhancedPredictor, WindowRenormalizesExactlyAtKTwo) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  // k=2 with two entries of deliberately inconsistent efficiency: the result
  // must be the {1/2, 1/4}-weighted combination renormalized by 3/4 — any
  // other normalization (e.g. dividing by the full weight sum 1) fails.
  const double t0 = w.op_complexity(OpKind::TMU, 0) * 1e-11;
  const double t1 = w.op_complexity(OpKind::TMU, 1) * 1e-11 * 2.0;
  p.record(OpKind::TMU, 0, t0);
  p.record(OpKind::TMU, 1, t1);
  const double expected = (0.5 * w.complexity_ratio(OpKind::TMU, 1, 2) * t1 +
                           0.25 * w.complexity_ratio(OpKind::TMU, 0, 2) * t0) /
                          0.75;
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 2, true), expected);
}

TEST(EnhancedPredictor, SkipsHolesInsideTheWindow) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  // k=3 with iteration 1 missing: the window contributions are i=1 (k-1=2,
  // weight 1/2) and i=3 (k-3=0, weight 1/8); the i=2 slot is a hole and its
  // 1/4 weight must drop out of the normalization.
  const double t0 = w.op_complexity(OpKind::TMU, 0) * 1e-11;
  const double t2 = w.op_complexity(OpKind::TMU, 2) * 1e-11 * 1.25;
  p.record(OpKind::TMU, 0, t0);
  p.record(OpKind::TMU, 2, t2);
  const double expected = (0.5 * w.complexity_ratio(OpKind::TMU, 2, 3) * t2 +
                           0.125 * w.complexity_ratio(OpKind::TMU, 0, 3) * t0) /
                          0.625;
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 3, true), expected);
}

TEST(FirstIterationPredictor, IgnoresLaterProfileWithoutIterationZero) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  // First-iteration profiling is *defined* by T0; with only iteration 4
  // profiled it has nothing to extrapolate from and reports "unknown".
  p.record(OpKind::TMU, 4, 1.0);
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 6, false), 0.0);
}

TEST(EnhancedPredictor, NothingKnownGivesZero) {
  const WorkloadTable table(lu());
  SlackHistory p(table);
  EXPECT_DOUBLE_EQ(p.predict(OpKind::PD, 3, true), 0.0);
  EXPECT_DOUBLE_EQ(p.predict(OpKind::PD, 0, true), 0.0);
}

TEST(Predictors, IndependentPerOpKind) {
  const WorkloadModel w = lu();
  const WorkloadTable table(w);
  SlackHistory p(table);
  p.record(OpKind::PD, 0, 1.0);
  EXPECT_DOUBLE_EQ(p.predict(OpKind::TMU, 1, true), 0.0);  // TMU never profiled
  EXPECT_GT(p.predict(OpKind::PD, 1, true), 0.0);
}

}  // namespace
}  // namespace bsr::predict
