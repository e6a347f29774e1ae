#include <gtest/gtest.h>

#include "energy/baselines.hpp"
#include "energy/bsr_strategy.hpp"
#include "energy/sr.hpp"

namespace bsr::energy {
namespace {

sched::PipelineConfig config(bool noise = true) {
  sched::PipelineConfig c;
  c.workload = {predict::Factorization::LU, 30720, 512, 8};
  c.noise.enabled = noise;
  c.seed = 11;
  return c;
}

sched::RunTrace run(Strategy& s, bool noise = true) {
  sched::HybridPipeline pipe(hw::PlatformProfile::paper_default(), config(noise));
  return run_under_strategy(pipe, s);
}

TEST(Helpers, TimeAtFreqInverseScaling) {
  const auto gpu = hw::PlatformProfile::paper_default().gpu;  // eta = 1
  EXPECT_NEAR(time_at_freq(1.0, 2600, gpu), 0.5, 1e-12);
  EXPECT_NEAR(time_at_freq(1.0, 650, gpu), 2.0, 1e-12);
}

TEST(Helpers, FreqForTimeRoundsUpAndClamps) {
  const auto gpu = hw::PlatformProfile::paper_default().gpu;
  // Need 1.17x speedup -> 1521 MHz -> round to 1600.
  EXPECT_EQ(freq_for_time(1.17, 1.0, gpu, true), 1600);
  // Impossible speedup clamps to max overclock.
  EXPECT_EQ(freq_for_time(10.0, 1.0, gpu, true), 2200);
  EXPECT_EQ(freq_for_time(10.0, 1.0, gpu, false), 1300);
  // Slowing down rounds up within range.
  EXPECT_EQ(freq_for_time(1.0, 2.0, gpu, false), 700);
}

TEST(Helpers, FreqForTimeDegenerateInputs) {
  const auto gpu = hw::PlatformProfile::paper_default().gpu;
  EXPECT_EQ(freq_for_time(1.0, 0.0, gpu, true), 2200);   // want zero time
  EXPECT_EQ(freq_for_time(0.0, 1.0, gpu, true), 1300);   // nothing to do
}

TEST(Original, KeepsBaseClocksThroughout) {
  OriginalStrategy s;
  sched::HybridPipeline pipe(hw::PlatformProfile::paper_default(), config());
  const sched::RunTrace t = run_under_strategy(pipe, s);
  for (const auto& o : t.iterations) {
    EXPECT_EQ(o.cpu_freq, 3500);
    EXPECT_EQ(o.gpu_freq, 1300);
    EXPECT_EQ(o.abft_mode, abft::ChecksumMode::None);
  }
}

TEST(R2H, SavesEnergyVsOriginalAtSimilarPerformance) {
  OriginalStrategy org;
  RaceToHaltStrategy r2h;
  const sched::RunTrace t_org = run(org);
  const sched::RunTrace t_r2h = run(r2h);
  EXPECT_LT(t_r2h.total_energy_j(), t_org.total_energy_j());
  // Racing can only help or match performance.
  EXPECT_LE(t_r2h.total_time.seconds(), t_org.total_time.seconds() * 1.02);
}

TEST(SR, SavesMoreThanR2H) {
  // Paper Fig. 12(a): SR > R2H in energy saving.
  OriginalStrategy org;
  RaceToHaltStrategy r2h;
  SlackReclamationStrategy sr;
  const double e_org = run(org).total_energy_j();
  const double e_r2h = run(r2h).total_energy_j();
  const double e_sr = run(sr).total_energy_j();
  EXPECT_LT(e_sr, e_r2h);
  EXPECT_LT(e_r2h, e_org);
}

TEST(SR, NeverOverclocksAndNeverAbft) {
  SlackReclamationStrategy sr;
  sched::HybridPipeline pipe(hw::PlatformProfile::paper_default(), config());
  const sched::RunTrace t = run_under_strategy(pipe, sr);
  for (const auto& o : t.iterations) {
    EXPECT_LE(o.cpu_freq, 3500);
    EXPECT_LE(o.gpu_freq, 1300);
    EXPECT_EQ(o.abft_mode, abft::ChecksumMode::None);
  }
}

TEST(SR, SlowsCpuDuringCpuSideSlack) {
  SlackReclamationStrategy sr;
  sched::HybridPipeline pipe(hw::PlatformProfile::paper_default(), config());
  const sched::RunTrace t = run_under_strategy(pipe, sr);
  // Iteration 2 has large CPU-side slack: the CPU must be well below base.
  EXPECT_LT(t.iterations[2].cpu_freq, 2000);
}

TEST(SR, PerformanceWithinFewPercentOfOriginal) {
  OriginalStrategy org;
  SlackReclamationStrategy sr;
  const double t_org = run(org).total_time.seconds();
  const double t_sr = run(sr).total_time.seconds();
  EXPECT_LT(t_sr, t_org * 1.05);
}

TEST(BSR, R0SavesMoreThanSR) {
  // The headline claim: BSR(r=0) beats SR on energy.
  SlackReclamationStrategy sr;
  BsrStrategy bsr(BsrConfig{0.0, 0.999999});
  const double e_sr = run(sr).total_energy_j();
  const double e_bsr = run(bsr).total_energy_j();
  EXPECT_LT(e_bsr, e_sr);
}

TEST(BSR, HigherRImprovesPerformance) {
  BsrStrategy bsr0(BsrConfig{0.0, 0.999999});
  BsrStrategy bsr25(BsrConfig{0.25, 0.999999});
  const double t0 = run(bsr0).total_time.seconds();
  const double t25 = run(bsr25).total_time.seconds();
  EXPECT_LT(t25, t0 * 0.97);
}

TEST(BSR, R0StaysFaultFreeAndUnprotected) {
  // With r=0 nothing is sped up, so the GPU never overclocks past the
  // fault-free limit and adaptive ABFT stays off.
  BsrStrategy bsr(BsrConfig{0.0, 0.999999});
  sched::HybridPipeline pipe(hw::PlatformProfile::paper_default(), config());
  const sched::RunTrace t = run_under_strategy(pipe, bsr);
  for (const auto& o : t.iterations) {
    EXPECT_EQ(o.abft_mode, abft::ChecksumMode::None) << o.k;
  }
}

TEST(BSR, HighREventuallyEngagesAbft) {
  // Paper Fig. 9 (r=0.25): late iterations overclock into the SDC regime and
  // adaptive ABFT turns on.
  BsrStrategy bsr(BsrConfig{0.25, 0.999999});
  sched::HybridPipeline pipe(hw::PlatformProfile::paper_default(), config());
  const sched::RunTrace t = run_under_strategy(pipe, bsr);
  int protected_iters = 0;
  int overclocked = 0;
  for (const auto& o : t.iterations) {
    if (o.abft_mode != abft::ChecksumMode::None) ++protected_iters;
    if (o.gpu_freq > 1700) ++overclocked;
  }
  EXPECT_GT(overclocked, 0);
  EXPECT_GT(protected_iters, 0);
}

TEST(BSR, AbftModeMatchesRunningFrequency) {
  // Whenever the GPU runs above the fault-free limit, protection must be on.
  const auto platform = hw::PlatformProfile::paper_default();
  BsrStrategy bsr(BsrConfig{0.3, 0.999999});
  sched::HybridPipeline pipe(platform, config());
  const sched::RunTrace t = run_under_strategy(pipe, bsr);
  const hw::Mhz ff = platform.gpu.fault_free_max();
  for (const auto& o : t.iterations) {
    if (o.gpu_freq > ff) {
      EXPECT_NE(o.abft_mode, abft::ChecksumMode::None) << "iter " << o.k;
    }
  }
}

TEST(BSR, UsesOptimizedGuardbandEnergySaving) {
  // Even at r=0, the optimized guardband alone must cut busy power vs SR.
  SlackReclamationStrategy sr;
  BsrStrategy bsr(BsrConfig{0.0, 0.999999});
  const sched::RunTrace t_sr = run(sr);
  const sched::RunTrace t_bsr = run(bsr);
  EXPECT_LT(t_bsr.gpu_energy_j, t_sr.gpu_energy_j);
}

TEST(RunTrace, AggregatesConsistent) {
  OriginalStrategy org;
  const sched::RunTrace t = run(org);
  double e = 0.0;
  SimTime total;
  for (const auto& o : t.iterations) {
    e += o.energy_j();
    total += o.span;
  }
  EXPECT_NEAR(t.total_energy_j(), e, 1e-9);
  EXPECT_EQ(t.total_time, total);
  EXPECT_GT(t.ed2p(), 0.0);
}

}  // namespace
}  // namespace bsr::energy
