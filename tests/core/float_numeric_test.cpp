// Single-precision numeric mode: the paper's Fig. 2 includes single precision,
// and the full numeric path (kernels, checksums, injection, repair) must work
// for float as it does for double.
#include <gtest/gtest.h>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig float_cfg(predict::Factorization f) {
  RunConfig cfg;
  cfg.factorization = f;
  cfg.n = 256;
  cfg.b = 32;
  cfg.elem_bytes = 4;
  cfg.mode = ExecutionMode::Numeric;
  cfg.strategy = "original";
  cfg.seed = 9;
  return cfg;
}

class FloatCleanRuns
    : public ::testing::TestWithParam<predict::Factorization> {};

TEST_P(FloatCleanRuns, ResidualAtSinglePrecisionScale) {
  const Decomposer dec;
  const RunReport r = dec.run(float_cfg(GetParam()));
  EXPECT_TRUE(r.numeric_executed);
  EXPECT_TRUE(r.numeric_correct);
  EXPECT_LT(r.residual, 1e-3);   // float roundoff scale
  EXPECT_GT(r.residual, 1e-10);  // and definitely not double precision
}

INSTANTIATE_TEST_SUITE_P(AllFactorizations, FloatCleanRuns,
                         ::testing::Values(predict::Factorization::Cholesky,
                                           predict::Factorization::LU,
                                           predict::Factorization::QR));

TEST(FloatNumeric, TransferBytesHalveVsDouble) {
  // elem_bytes feeds the workload model: single precision halves the panel
  // traffic, which (slightly) widens CPU-side slack as in paper Fig. 2.
  const Decomposer dec;
  RunConfig cfg = float_cfg(predict::Factorization::LU);
  cfg.mode = ExecutionMode::TimingOnly;
  cfg.n = 30720;
  cfg.b = 512;
  const RunReport sp = dec.run(cfg);
  cfg.elem_bytes = 8;
  const RunReport dp = dec.run(cfg);
  EXPECT_LT(sp.trace.iterations[2].transfer, dp.trace.iterations[2].transfer);
  EXPECT_GT(sp.trace.iterations[2].slack, dp.trace.iterations[2].slack);
}

TEST(FloatNumeric, InjectionAndFullAbftRepairInFloat) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig cfg = float_cfg(predict::Factorization::LU);
  cfg.n = 1024;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.25;
  cfg.fc_desired = 0.999;
  cfg.error_rate_multiplier = 100.0;
  cfg.seed = 5;
  cfg.abft_policy = "none";
  const RunReport none = dec.run(cfg);
  EXPECT_GT(none.abft.errors_injected_total(), 0);
  EXPECT_FALSE(none.numeric_correct);
  cfg.abft_policy = "full";
  const RunReport full = dec.run(cfg);
  EXPECT_TRUE(full.numeric_correct) << "residual=" << full.residual;
}

}  // namespace
}  // namespace bsr::core
