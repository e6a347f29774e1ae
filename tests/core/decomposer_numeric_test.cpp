#include <gtest/gtest.h>

#include <cmath>

#include "common/ascii.hpp"
#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig numeric_cfg(predict::Factorization f, const std::string& strategy,
                      std::int64_t n = 256, std::int64_t b = 32) {
  RunConfig cfg;
  cfg.factorization = f;
  cfg.n = n;
  cfg.b = b;
  cfg.strategy = strategy;
  cfg.mode = ExecutionMode::Numeric;
  cfg.seed = 5;
  return cfg;
}

/// Fault-injection experiments run on the numeric_demo platform (paper-scale
/// op durations at reduced n, see PlatformProfile::numeric_demo) with a BSR
/// reclamation ratio that overclocks the late iterations into SDC territory.
RunConfig injection_cfg(predict::Factorization f, std::int64_t n = 1024,
                        std::int64_t b = 32) {
  RunConfig cfg = numeric_cfg(f, "bsr", n, b);
  cfg.reclamation_ratio = 0.25;
  cfg.fc_desired = 0.999;
  cfg.error_rate_multiplier = 100.0;
  return cfg;
}

/// `cfg` under the bsr::abft_policies() key `policy`.
RunConfig with_abft(RunConfig cfg, const char* policy) {
  cfg.abft_policy = policy;
  return cfg;
}

class NumericCleanRuns
    : public ::testing::TestWithParam<std::pair<predict::Factorization,
                                                StrategyKind>> {};

TEST_P(NumericCleanRuns, ResidualTinyWithoutOverclock) {
  const auto [fact, strat] = GetParam();
  const Decomposer dec;
  // A built-in kind's printed name lowercases to its registry key.
  RunConfig cfg = numeric_cfg(fact, ascii_lower(to_string(strat)));
  cfg.reclamation_ratio = 0.0;  // no overclocking, no SDCs
  const RunReport r = dec.run(cfg);
  EXPECT_TRUE(r.numeric_executed);
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_TRUE(r.numeric_correct);
  EXPECT_EQ(r.abft.errors_injected_total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NumericCleanRuns,
    ::testing::Values(
        std::pair{predict::Factorization::Cholesky, StrategyKind::Original},
        std::pair{predict::Factorization::LU, StrategyKind::Original},
        std::pair{predict::Factorization::QR, StrategyKind::Original},
        std::pair{predict::Factorization::Cholesky, StrategyKind::BSR},
        std::pair{predict::Factorization::LU, StrategyKind::SR},
        std::pair{predict::Factorization::QR, StrategyKind::BSR}));

TEST(Numeric, InjectionWithoutFtCorruptsResult) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig cfg = injection_cfg(predict::Factorization::LU);
  const RunReport r = dec.run(with_abft(cfg, "none"));
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_FALSE(r.numeric_correct);
  EXPECT_GT(r.residual, 1e-3);
}

TEST(Numeric, InjectionWithoutFtCorruptsQr) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig cfg = injection_cfg(predict::Factorization::QR);
  const RunReport r = dec.run(with_abft(cfg, "none"));
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_FALSE(r.numeric_correct);
  EXPECT_GT(r.residual, 1e-3);
}

// An uncorrected SDC can make the trailing matrix indefinite, so a pivot of
// the next panel fails. The run reports an incorrect result with a
// non-finite residual, and its timing run covers every iteration.
TEST(Numeric, InjectionWithoutFtBreaksCholeskyWithoutThrowing) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig cfg = injection_cfg(predict::Factorization::Cholesky, 256);
  cfg.error_rate_multiplier = 3000.0;
  cfg.seed = 1;
  const RunReport r = dec.run(with_abft(cfg, "none"));
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_FALSE(r.numeric_correct);
  EXPECT_FALSE(std::isfinite(r.residual));
  EXPECT_EQ(r.trace.iterations.size(), 256u / 32u);
}

TEST(Numeric, FullAbftRepairsInjectedErrors) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig cfg = injection_cfg(predict::Factorization::LU);
  const RunReport r = dec.run(with_abft(cfg, "full"));
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_GT(r.abft.corrected_0d + r.abft.corrected_1d, 0);
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
}

TEST(Numeric, AdaptiveAbftAlsoRepairs) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig cfg = injection_cfg(predict::Factorization::LU);
  const RunReport r = dec.run(cfg);
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
  // The staircase: most iterations unprotected, the overclocked tail covered.
  EXPECT_GT(r.abft.iterations_unprotected, 0);
  EXPECT_GT(r.abft.iterations_protected_single + r.abft.iterations_protected_full,
            0);
}

TEST(Numeric, AdaptiveOverclocksIntoSdcTerritory) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig cfg = injection_cfg(predict::Factorization::LU);
  const RunReport r = dec.run(cfg);
  const hw::Mhz ff = dec.platform().gpu.fault_free_max();
  int overclocked = 0;
  for (const auto& it : r.trace.iterations) {
    if (it.gpu_freq > ff) ++overclocked;
  }
  EXPECT_GT(overclocked, 0);
}

TEST(Numeric, CholeskyWithInjectionAndFullAbft) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig cfg = injection_cfg(predict::Factorization::Cholesky, 512, 32);
  cfg.error_rate_multiplier = 300.0;
  const RunReport r = dec.run(with_abft(cfg, "full"));
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
}

TEST(Numeric, QrWithInjectionAndFullAbft) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig cfg = injection_cfg(predict::Factorization::QR, 512, 32);
  cfg.error_rate_multiplier = 300.0;
  const RunReport r = dec.run(with_abft(cfg, "full"));
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
}

TEST(Numeric, StatsCountProtectedIterations) {
  const Decomposer dec;
  const RunConfig cfg = numeric_cfg(predict::Factorization::LU, "bsr");
  const RunReport forced = dec.run(with_abft(cfg, "single"));
  EXPECT_EQ(forced.abft.iterations_protected_single,
            static_cast<int>(forced.trace.iterations.size()));
  EXPECT_EQ(forced.abft.iterations_protected_full, 0);
}

TEST(Numeric, DeterministicInjectionPerSeed) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig cfg = injection_cfg(predict::Factorization::LU);
  const RunReport a = dec.run(with_abft(cfg, "none"));
  const RunReport b = dec.run(with_abft(cfg, "none"));
  EXPECT_EQ(a.abft.errors_injected_total(), b.abft.errors_injected_total());
  EXPECT_DOUBLE_EQ(a.residual, b.residual);
}

}  // namespace
}  // namespace bsr::core
