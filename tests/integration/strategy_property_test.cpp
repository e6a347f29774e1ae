// Property sweeps over the strategy layer: invariants that must hold for
// every (factorization, size, reclamation ratio, seed) combination, not just
// the calibrated defaults.
#include <gtest/gtest.h>

#include <tuple>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

class StrategyGrid
    : public ::testing::TestWithParam<
          std::tuple<predict::Factorization, std::int64_t, double>> {};

TEST_P(StrategyGrid, BsrNeverSlowerAndNeverProtectsFaultFreeClocks) {
  const auto [fact, n, r] = GetParam();
  const Decomposer dec;
  RunConfig cfg;
  cfg.factorization = fact;
  cfg.n = n;
  cfg.b = tuned_block(n);
  cfg.strategy = "original";
  const RunReport org = dec.run(cfg);
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = r;
  const RunReport bsr = dec.run(cfg);

  // Performance guard: BSR must not lose more than a sliver to Original.
  EXPECT_LT(bsr.seconds(), org.seconds() * 1.03)
      << predict::to_string(fact) << " n=" << n << " r=" << r;

  // Protection exactly matches exposure: ABFT on <=> clock above fault-free.
  const hw::Mhz ff = dec.platform().gpu.fault_free_max();
  for (const auto& it : bsr.trace.iterations) {
    if (it.gpu_freq > ff) {
      EXPECT_NE(it.abft_mode, abft::ChecksumMode::None)
          << "iter " << it.k << " at " << it.gpu_freq;
    } else {
      EXPECT_EQ(it.abft_mode, abft::ChecksumMode::None)
          << "iter " << it.k << " at " << it.gpu_freq;
    }
  }

  // Energy accounting is self-consistent.
  double sum = 0.0;
  for (const auto& it : bsr.trace.iterations) sum += it.energy_j();
  EXPECT_NEAR(sum, bsr.total_energy_j(), 1e-6 * bsr.total_energy_j());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StrategyGrid,
    ::testing::Combine(::testing::Values(predict::Factorization::Cholesky,
                                         predict::Factorization::LU,
                                         predict::Factorization::QR),
                       ::testing::Values<std::int64_t>(8192, 30720),
                       ::testing::Values(0.0, 0.15, 0.3)));

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, OrderingRobustToNoiseRealization) {
  // The BSR > SR > R2H energy ordering must survive any noise seed.
  const Decomposer dec;
  RunConfig cfg;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.seed = static_cast<std::uint64_t>(GetParam()) * 7919 + 3;
  cfg.strategy = "original";
  const RunReport org = dec.run(cfg);
  cfg.strategy = "r2h";
  const RunReport r2h = dec.run(cfg);
  cfg.strategy = "sr";
  const RunReport sr = dec.run(cfg);
  cfg.strategy = "bsr";
  const RunReport bsr = dec.run(cfg);
  EXPECT_LT(bsr.total_energy_j(), sr.total_energy_j());
  EXPECT_LT(sr.total_energy_j(), r2h.total_energy_j());
  EXPECT_LT(r2h.total_energy_j(), org.total_energy_j());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(1, 9));

class BlockSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BlockSweep, PipelineInvariantsAcrossBlockSizes) {
  const std::int64_t b = GetParam();
  const Decomposer dec;
  RunConfig cfg;
  cfg.n = 16384;
  cfg.b = b;
  cfg.strategy = "bsr";
  const RunReport r = dec.run(cfg);
  const int expected_iters = static_cast<int>((cfg.n + b - 1) / b);
  EXPECT_EQ(static_cast<int>(r.trace.iterations.size()), expected_iters);
  for (const auto& it : r.trace.iterations) {
    EXPECT_GE(it.span.ns(), 0);
    EXPECT_EQ(it.span, max(it.cpu_lane, it.gpu_lane));
    EXPECT_GE(it.cpu_energy_j, 0.0);
    EXPECT_GE(it.gpu_energy_j, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSweep,
                         ::testing::Values<std::int64_t>(128, 256, 512, 1024,
                                                         2048));

TEST(StrategyProperty, MonotoneEnergyInReclamationRatio) {
  // Along the r sweep, energy must be non-decreasing (Pareto frontier shape)
  // up to small DVFS-grid plateaus.
  const Decomposer dec;
  RunConfig cfg;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.strategy = "bsr";
  double prev = 0.0;
  for (double r = 0.0; r <= 0.45; r += 0.05) {
    cfg.reclamation_ratio = r;
    const double e = dec.run(cfg).total_energy_j();
    EXPECT_GE(e, prev * 0.995) << "r=" << r;  // allow rounding plateaus
    prev = e;
  }
}

TEST(StrategyProperty, TimingModeIndependentOfExecutionMode) {
  // The schedule must be a pure function of the config, not of whether the
  // numerics run alongside (numeric runs at a small size for speed).
  const Decomposer dec;
  RunConfig cfg;
  cfg.n = 192;
  cfg.b = 32;
  cfg.strategy = "sr";
  cfg.mode = ExecutionMode::TimingOnly;
  const RunReport t = dec.run(cfg);
  cfg.mode = ExecutionMode::Numeric;
  const RunReport m = dec.run(cfg);
  ASSERT_EQ(t.trace.iterations.size(), m.trace.iterations.size());
  for (std::size_t k = 0; k < t.trace.iterations.size(); ++k) {
    EXPECT_EQ(t.trace.iterations[k].span, m.trace.iterations[k].span);
    EXPECT_EQ(t.trace.iterations[k].gpu_freq, m.trace.iterations[k].gpu_freq);
  }
}

}  // namespace
}  // namespace bsr::core
