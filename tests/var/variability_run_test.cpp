// The variability subsystem end to end: the off/on contract on both engines,
// bitwise determinism at any sweep thread count, thermal throttling of BSR's
// overclocked lane, per-lane accounting invariants under jitter, and the
// paper's Fig. 8 direction (enhanced prediction beats first-iteration
// profiling under drift).
#include <gtest/gtest.h>

#include <cmath>

#include "bsr/bsr.hpp"
#include "energy/baselines.hpp"
#include "predict/slack_history.hpp"
#include "sched/pipeline.hpp"

namespace bsr {
namespace {

RunConfig small_lu() {
  RunConfig cfg;
  cfg.n = 8192;
  cfg.b = 512;
  return cfg;
}

TEST(VariabilityRun, DisabledBlockIsBitwiseTheBaselineSimulator) {
  const RunConfig plain = small_lu();
  RunConfig off = small_lu();
  // A *disabled* block is inert even with every model parameterized: the
  // enabled flag, not the field values, is the contract.
  off.variability.drift = 0.1;
  off.variability.transfer_jitter = 0.3;
  off.variability.boost_budget_s = 1.0;
  off.variability.freq_quantum_mhz = 400;
  const core::RunReport a = run(plain);
  const core::RunReport b = run(off);
  EXPECT_EQ(a.seconds(), b.seconds());
  EXPECT_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_EQ(plain.fingerprint(), off.fingerprint());
}

TEST(VariabilityRun, EnabledDriftChangesTheOutcomeDeterministically) {
  RunConfig noisy = small_lu();
  noisy.variability = make_variability("drift");
  const core::RunReport a = run(noisy);
  const core::RunReport b = run(noisy);
  EXPECT_EQ(a.seconds(), b.seconds());  // bitwise repeatable
  EXPECT_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_NE(run(small_lu()).seconds(), a.seconds());  // and genuinely on

  RunConfig other_seed = noisy;
  other_seed.seed = 43;
  EXPECT_NE(run(other_seed).seconds(), a.seconds());
  EXPECT_NE(noisy.fingerprint(), small_lu().fingerprint());
}

TEST(VariabilityRun, ClusterRunsAreDeterministicUnderJitter) {
  RunConfig cfg = small_lu();
  cfg.devices = 4;
  cfg.variability = make_variability("jitter");
  const core::RunReport a = run(cfg);
  const core::RunReport b = run(cfg);
  EXPECT_EQ(a.seconds(), b.seconds());
  EXPECT_EQ(a.total_energy_j(), b.total_energy_j());
  ASSERT_EQ(a.device_usage.size(), b.device_usage.size());
  for (std::size_t d = 0; d < a.device_usage.size(); ++d) {
    EXPECT_EQ(a.device_usage[d].energy_j, b.device_usage[d].energy_j);
    EXPECT_EQ(a.device_usage[d].busy_s, b.device_usage[d].busy_s);
  }

  RunConfig off = small_lu();
  off.devices = 4;
  EXPECT_NE(run(off).seconds(), a.seconds());
}

TEST(VariabilityRun, ClusterLaneAccountingStaysClosedUnderJitter) {
  // Per-lane busy + idle + dvfs must still tile the makespan exactly when
  // every duration is jittered — jitter moves work, it must not leak time.
  ClusterConfig cc;
  cc.base = small_lu();
  cc.base.variability = make_variability("hostile");
  cc.devices = 4;
  const cluster::ClusterReport r = run_cluster_detailed(cc);
  const double makespan = r.makespan.seconds();
  const auto check = [makespan](const cluster::DeviceUsage& u) {
    EXPECT_NEAR(u.busy_s + u.idle_s + u.dvfs_s, makespan, 1e-9 * makespan)
        << u.name;
  };
  check(r.host);
  for (const cluster::DeviceUsage& u : r.devices) check(u);
}

TEST(VariabilityRun, SweepIsThreadCountInvariantWithVariabilityOn) {
  const auto sweep = [](int threads) {
    RunConfig base = small_lu();
    base.n = 2048;
    base.b = 128;
    base.variability = make_variability("hostile");
    Sweep s(base);
    s.over(trial_axis(4, /*root_seed=*/1234))
        .over(strategy_axis({"original", "bsr"}))
        .threads(threads);
    return s;
  };
  SweepResult serial = sweep(1).run();
  SweepResult parallel = sweep(4).run();
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  ASSERT_EQ(serial.rows.size(), 8u);
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    // Bitwise identity: exact double equality, not tolerance. Each trial's
    // variability streams derive from its cell seed, never from the worker.
    EXPECT_EQ(serial.rows[i].report->seconds(),
              parallel.rows[i].report->seconds())
        << "row " << i;
    EXPECT_EQ(serial.rows[i].report->total_energy_j(),
              parallel.rows[i].report->total_energy_j());
  }
  // Different trials genuinely sample different worlds.
  EXPECT_NE(serial.rows[0].report->seconds(),
            serial.rows[2].report->seconds());
}

TEST(VariabilityRun, BoostBudgetThrottlesBsrsOverclockedLane) {
  RunConfig bsr = small_lu();
  bsr.n = 30720;
  bsr.b = 512;
  bsr.strategy = "bsr";
  bsr.reclamation_ratio = 0.5;  // r > 0: BSR overclocks the critical lane
  RunConfig throttled = bsr;
  throttled.variability.enabled = true;
  throttled.variability.boost_budget_s = 0.5;
  throttled.variability.boost_recovery = 0.1;

  const core::RunReport free_run = run(bsr);
  const core::RunReport tight_run = run(throttled);
  const auto boosted_iters = [](const core::RunReport& r) {
    int count = 0;
    for (const auto& o : r.trace.iterations) {
      if (o.gpu_freq > 1300 || o.cpu_freq > 3500) ++count;
    }
    return count;
  };
  // The unthrottled BSR boosts for most of the run; the tight budget forces
  // the overclocked lane back to base for a strictly positive share of it.
  ASSERT_GT(boosted_iters(free_run), 0);
  EXPECT_LT(boosted_iters(tight_run), boosted_iters(free_run));
  // Paying for the boost costs wall time.
  EXPECT_GT(tight_run.seconds(), free_run.seconds());
}

TEST(VariabilityRun, DriftSeparatesThePredictorsFig08Direction) {
  // The acceptance direction of Fig. 8: under calibrated efficiency drift
  // the enhanced predictor's mean absolute prediction error stays strictly
  // below first-iteration profiling's.
  const predict::WorkloadModel wl{predict::Factorization::LU, 16384, 512, 8};
  sched::PipelineConfig cfg;
  cfg.workload = wl;
  cfg.noise.enabled = true;
  cfg.seed = 42;
  cfg.variability = make_variability("drift");
  sched::HybridPipeline pipe(make_platform("paper_default"), cfg);
  energy::OriginalStrategy original;
  double first_err = 0.0;
  double enhanced_err = 0.0;
  int scored = 0;
  for (int k = 0; k < pipe.num_iterations(); ++k) {
    const double pf = pipe.history().predict(predict::OpKind::TMU, k, false);
    const double pe = pipe.history().predict(predict::OpKind::TMU, k, true);
    const sched::IterationOutcome o =
        pipe.run_iteration(k, original.decide(k, pipe));
    if (k >= 1 && o.pu_tmu_base_s > 0.0) {
      first_err += std::abs(pf - o.pu_tmu_base_s) / o.pu_tmu_base_s;
      enhanced_err += std::abs(pe - o.pu_tmu_base_s) / o.pu_tmu_base_s;
      ++scored;
    }
  }
  ASSERT_GT(scored, 10);
  EXPECT_LT(enhanced_err, first_err);
}

TEST(VariabilityRun, PresetRegistryRoundTrips) {
  EXPECT_FALSE(make_variability("off").enabled);
  EXPECT_FALSE(make_variability("none").enabled);  // alias
  EXPECT_TRUE(make_variability("drift").enabled);
  EXPECT_GT(make_variability("fig08").drift, 0.0);  // alias of drift
  EXPECT_GT(make_variability("hostile").boost_budget_s, 0.0);
  EXPECT_THROW((void)make_variability("nope"), std::invalid_argument);
}

TEST(VariabilityRun, ValidationFlowsThroughRunConfig) {
  RunConfig cfg = small_lu();
  cfg.variability.enabled = true;
  cfg.variability.drift = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RunConfig: variability:"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace bsr
