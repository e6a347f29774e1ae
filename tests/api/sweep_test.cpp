// Sweep engine: grid expansion, deterministic parallel execution (N threads
// vs 1 thread bitwise-identical, ISSUE 2 satellite), and the baseline cache
// (cached == fresh bitwise, ISSUE 2 satellite).
#include "bsr/sweep.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "bsr/registry.hpp"
#include "core/decomposer.hpp"
#include "energy/bsr_strategy.hpp"
#include "serve/report_json.hpp"

namespace bsr {
namespace {

RunConfig small_base() {
  RunConfig cfg;
  cfg.n = 4096;
  cfg.b = 512;
  return cfg;
}

/// Bitwise equality of two doubles (no tolerance: determinism means identity).
bool same_bits(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// Bitwise equality of everything a report derives its metrics from.
void expect_identical_reports(const RunReport& a, const RunReport& b) {
  EXPECT_TRUE(same_bits(a.seconds(), b.seconds()));
  EXPECT_TRUE(same_bits(a.total_energy_j(), b.total_energy_j()));
  EXPECT_TRUE(same_bits(a.cpu_energy_j(), b.cpu_energy_j()));
  EXPECT_TRUE(same_bits(a.gpu_energy_j(), b.gpu_energy_j()));
  EXPECT_TRUE(same_bits(a.ed2p(), b.ed2p()));
  ASSERT_EQ(a.trace.iterations.size(), b.trace.iterations.size());
  for (std::size_t k = 0; k < a.trace.iterations.size(); ++k) {
    const auto& ia = a.trace.iterations[k];
    const auto& ib = b.trace.iterations[k];
    EXPECT_EQ(ia.span.ns(), ib.span.ns());
    EXPECT_TRUE(same_bits(ia.cpu_energy_j, ib.cpu_energy_j));
    EXPECT_TRUE(same_bits(ia.gpu_energy_j, ib.gpu_energy_j));
    EXPECT_EQ(ia.cpu_freq, ib.cpu_freq);
    EXPECT_EQ(ia.gpu_freq, ib.gpu_freq);
    EXPECT_EQ(ia.abft_mode, ib.abft_mode);
  }
  EXPECT_EQ(a.abft.iterations_protected_single, b.abft.iterations_protected_single);
  EXPECT_EQ(a.abft.iterations_protected_full, b.abft.iterations_protected_full);
}

TEST(Sweep, ExpansionOrderIsRowMajorFirstAxisOutermost) {
  SweepResult grid = Sweep(small_base())
                         .over(strategy_axis({"original", "bsr"}))
                         .over(ratio_axis({0.0, 0.25}))
                         .threads(1)
                         .run();
  ASSERT_EQ(grid.rows.size(), 4u);
  EXPECT_EQ(grid.rows[0].coords.at("strategy"), "original");
  EXPECT_EQ(grid.rows[0].coords.at("r"), "0");
  EXPECT_EQ(grid.rows[1].coords.at("strategy"), "original");
  EXPECT_EQ(grid.rows[1].coords.at("r"), "0.25");
  EXPECT_EQ(grid.rows[2].coords.at("strategy"), "bsr");
  EXPECT_EQ(grid.rows[3].coords.at("r"), "0.25");
  EXPECT_EQ(grid.axis_names, (std::vector<std::string>{"strategy", "r"}));
  for (std::size_t i = 0; i < grid.rows.size(); ++i) {
    EXPECT_EQ(grid.rows[i].index, i);
    ASSERT_NE(grid.rows[i].report, nullptr);
  }
}

// The headline determinism guarantee (ISSUE 2): an 8-cell grid on one thread
// and on N worker threads yields identical ordering and bitwise-identical
// values, because seeds derive per cell, never per worker.
TEST(Sweep, OneThreadVsManyThreadsBitwiseIdentical) {
  const auto build = [](Sweep& sweep) -> SweepResult {
    return sweep.over(strategy_axis({"original", "bsr"}))
        .over(trial_axis(4, 99))
        .baseline("original")
        .run();
  };
  Sweep serial(small_base());
  serial.threads(1);
  Sweep parallel(small_base());
  parallel.threads(4);  // a real 4-worker pool even on 1-core machines
  const SweepResult a = build(serial);
  const SweepResult b = build(parallel);

  ASSERT_EQ(a.rows.size(), 8u);
  ASSERT_EQ(b.rows.size(), 8u);
  EXPECT_EQ(a.requested_runs, b.requested_runs);
  EXPECT_EQ(a.unique_runs, b.unique_runs);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].coords, b.rows[i].coords) << "row " << i;
    EXPECT_EQ(a.rows[i].config.seed, b.rows[i].config.seed) << "row " << i;
    EXPECT_EQ(a.rows[i].config.fingerprint(), b.rows[i].config.fingerprint());
    expect_identical_reports(*a.rows[i].report, *b.rows[i].report);
    expect_identical_reports(*a.rows[i].baseline, *b.rows[i].baseline);
  }
}

// In a numeric sweep the la kernels run on the pool's participating caller
// thread too, and call the same shared pool from there. Every row must still
// come back, byte-equal to a one-thread sweep, residual included.
TEST(Sweep, NumericSweepOnSharedPoolMatchesOneThread) {
  RunConfig base;
  base.n = 96;
  base.b = 32;
  base.strategy = "bsr";
  base.reclamation_ratio = 0.25;
  base.fc_desired = 0.999;
  base.platform = "numeric_demo";
  base.mode = ExecutionMode::Numeric;
  base.error_rate_multiplier = 150.0;
  const auto build = [&](int threads) {
    return Sweep(base)
        .over(factorization_axis({Factorization::LU, Factorization::QR,
                                  Factorization::Cholesky}))
        .over(abft_axis({"adaptive", "none"}))
        .over(trial_axis(4, 11))
        .threads(threads)
        .run();
  };
  const SweepResult serial = build(1);
  const SweepResult shared = build(0);
  ASSERT_EQ(serial.rows.size(), 24u);
  ASSERT_EQ(shared.rows.size(), serial.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    ASSERT_NE(serial.rows[i].report, nullptr) << "row " << i;
    ASSERT_NE(shared.rows[i].report, nullptr) << "row " << i;
    EXPECT_EQ(serve::serialize_report(*shared.rows[i].report),
              serve::serialize_report(*serial.rows[i].report))
        << "row " << i;
  }
}

// The baseline cache satellite: a report served from the cache is bitwise
// identical to a fresh standalone run of the same configuration.
TEST(Sweep, CachedBaselineBitwiseIdenticalToFreshRun) {
  Sweep sweep(small_base());
  const SweepResult grid = sweep.over(ratio_axis({0.0, 0.1, 0.2}))
                               .baseline("original")
                               .run();
  ASSERT_EQ(grid.rows.size(), 3u);
  // All three r-cells share one baseline execution...
  EXPECT_EQ(grid.requested_runs, 6u);
  EXPECT_EQ(grid.unique_runs, 4u);
  EXPECT_EQ(grid.cache_hits, 2u);
  EXPECT_EQ(grid.rows[0].baseline.get(), grid.rows[1].baseline.get());
  EXPECT_EQ(grid.rows[0].baseline.get(), grid.rows[2].baseline.get());

  // ...and that cached report matches a from-scratch run bit for bit.
  RunConfig fresh_cfg = small_base();
  fresh_cfg.strategy = "original";
  const RunReport fresh = run(fresh_cfg);
  expect_identical_reports(*grid.rows[0].baseline, fresh);

  // A second run() of the same grid is served entirely from the cache and
  // returns the same values.
  const SweepResult again = sweep.run();
  EXPECT_EQ(again.unique_runs, 0u);
  EXPECT_EQ(again.cache_hits, again.requested_runs);
  for (std::size_t i = 0; i < grid.rows.size(); ++i) {
    expect_identical_reports(*grid.rows[i].report, *again.rows[i].report);
  }
}

TEST(Sweep, OriginalCellSharesBaselineRun) {
  // When Original is both a displayed cell and the baseline, the sweep
  // executes it once (the seed benches ran it twice).
  const SweepResult grid = Sweep(small_base())
                               .over(strategy_axis({"original", "r2h"}))
                               .baseline("original")
                               .threads(1)
                               .run();
  EXPECT_EQ(grid.requested_runs, 4u);
  EXPECT_EQ(grid.unique_runs, 2u);
  const SweepRow& org = grid.at({{"strategy", "original"}});
  EXPECT_EQ(org.report.get(), org.baseline.get());
  EXPECT_DOUBLE_EQ(org.energy_saving(), 0.0);
  EXPECT_DOUBLE_EQ(org.speedup(), 1.0);
}

TEST(Sweep, NonBsrCellsDedupeAcrossRatioAxis) {
  // r only steers BSR; the Original column of a (strategy x r) grid is one
  // run shared by every r row.
  const SweepResult grid = Sweep(small_base())
                               .over(strategy_axis({"original", "bsr"}))
                               .over(ratio_axis({0.0, 0.25}))
                               .threads(1)
                               .run();
  EXPECT_EQ(grid.requested_runs, 4u);
  EXPECT_EQ(grid.unique_runs, 3u);
  EXPECT_EQ(grid.rows[0].report.get(), grid.rows[1].report.get());
  EXPECT_NE(grid.rows[2].report.get(), grid.rows[3].report.get());
}

TEST(Sweep, BaselineKeyIsCanonicalized) {
  // "BSR" must behave exactly like "bsr": the baseline keeps the cell's BSR
  // knobs (r, fc, ablation flags) and shares the cell's cached run.
  RunConfig base = small_base();
  base.strategy = "bsr";
  base.reclamation_ratio = 0.25;
  const SweepResult grid =
      Sweep(base).over(trial_axis(1, 5)).baseline("BSR").threads(1).run();
  ASSERT_EQ(grid.rows.size(), 1u);
  EXPECT_EQ(grid.rows[0].report.get(), grid.rows[0].baseline.get());
  EXPECT_EQ(grid.unique_runs, 1u);
}

TEST(Sweep, CustomBaselineKeepsCellKnobs) {
  // Runtime-registered baseline strategies may read any RunConfig field, so
  // the baseline keeps each cell's knobs (no default-reset as for the
  // built-in non-BSR baselines) — one baseline run per distinct r here.
  if (!strategies().contains("sweep_test_r_reader")) {
    strategies().add(
        "sweep_test_r_reader",
        {std::nullopt,
         [](const RunConfig& cfg) -> std::unique_ptr<energy::Strategy> {
           energy::BsrConfig c;
           c.reclamation_ratio = cfg.reclamation_ratio;
           return std::make_unique<energy::BsrStrategy>(c);
         }});
  }
  RunConfig base = small_base();
  base.strategy = "bsr";
  const SweepResult grid = Sweep(base)
                               .over(ratio_axis({0.1, 0.3}))
                               .baseline("sweep_test_r_reader")
                               .threads(1)
                               .run();
  ASSERT_EQ(grid.rows.size(), 2u);
  EXPECT_EQ(grid.unique_runs, 4u);  // 2 cells + 2 distinct baselines
  EXPECT_NE(grid.rows[0].baseline.get(), grid.rows[1].baseline.get());
}

TEST(Sweep, InvalidCellFailsFast) {
  Sweep sweep(small_base());
  sweep.over(ratio_axis({0.0, 2.0}));  // r = 2 is invalid
  EXPECT_THROW((void)sweep.run(), std::invalid_argument);
}

TEST(Sweep, WorkerExceptionsPropagate) {
  if (!strategies().contains("sweep_test_throws")) {
    strategies().add("sweep_test_throws",
                     {std::nullopt,
                      [](const RunConfig&)
                          -> std::unique_ptr<energy::Strategy> {
                        throw std::runtime_error("boom from factory");
                      }});
  }
  Sweep sweep(small_base());
  sweep.over(strategy_axis({"original", "sweep_test_throws"}));
  EXPECT_THROW((void)sweep.run(), std::runtime_error);
}

TEST(Sweep, AtRejectsAmbiguousAndMissingCoords) {
  const SweepResult grid = Sweep(small_base())
                               .over(strategy_axis({"original", "bsr"}))
                               .over(ratio_axis({0.0, 0.25}))
                               .threads(1)
                               .run();
  EXPECT_THROW((void)grid.at({{"strategy", "original"}}), std::out_of_range);
  EXPECT_THROW((void)grid.at({{"strategy", "nope"}}), std::out_of_range);
  EXPECT_EQ(grid.at({{"strategy", "bsr"}, {"r", "0.25"}}).index, 3u);
  EXPECT_EQ(grid.where("strategy", "bsr").size(), 2u);
}

TEST(Sweep, TrialAxisSeedsAreIndexDerived) {
  const SweepResult grid = Sweep(small_base())
                               .over(trial_axis(3, 1000))
                               .threads(1)
                               .run();
  ASSERT_EQ(grid.rows.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(grid.rows[t].config.seed, derive_cell_seed(1000, t));
  }
}

}  // namespace
}  // namespace bsr
