#include "sched/pipeline.hpp"

#include <gtest/gtest.h>

namespace bsr::sched {
namespace {

PipelineConfig config(std::int64_t n = 30720, std::int64_t b = 512,
                      bool noise = false) {
  PipelineConfig c;
  c.workload = {predict::Factorization::LU, n, b, 8};
  c.noise.enabled = noise;
  c.seed = 7;
  return c;
}

IterationDecision base_decision(const hw::PlatformProfile& p) {
  IterationDecision d;
  d.cpu_freq = p.cpu.freq.base_mhz;
  d.gpu_freq = p.gpu.freq.base_mhz;
  d.adjust_cpu = true;
  d.adjust_gpu = true;
  return d;
}

TEST(Pipeline, SpanIsMaxOfLanes) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config());
  const IterationOutcome o = pipe.run_iteration(0, base_decision(platform));
  EXPECT_EQ(o.span, max(o.cpu_lane, o.gpu_lane));
  EXPECT_EQ(o.slack, o.gpu_lane - o.cpu_lane);
}

TEST(Pipeline, ClockAdvancesBySpan) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config());
  EXPECT_EQ(pipe.now(), SimTime::zero());
  const IterationOutcome o0 = pipe.run_iteration(0, base_decision(platform));
  EXPECT_EQ(pipe.now(), o0.span);
  const IterationOutcome o1 = pipe.run_iteration(1, base_decision(platform));
  EXPECT_EQ(pipe.now(), o0.span + o1.span);
}

TEST(Pipeline, EnergyIsPowerTimesSegmentTime) {
  // Each lane's energy is its busy power times its compute time plus its
  // idle power times the rest of the span (DVFS stalls, the transfer on the
  // CPU side, and the trailing idle), at the clocks the iteration ran and
  // under the decision's guardbands.
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config());
  IterationDecision d = base_decision(platform);
  d.abft_mode = abft::ChecksumMode::SingleSide;
  d.gpu_guardband = hw::Guardband::Optimized;
  for (int k = 0; k < 10; ++k) {
    d.gpu_freq = k % 2 == 0 ? platform.gpu.freq.base_mhz : 1000;  // DVFS stalls
    const IterationOutcome o = pipe.run_iteration(k, d);
    EXPECT_EQ(o.cpu_dvfs + o.transfer + o.pd, o.cpu_lane) << k;
    EXPECT_EQ(o.gpu_dvfs + o.pu_tmu + o.abft_time, o.gpu_lane) << k;

    const double cpu_j =
        platform.cpu.busy_power(o.cpu_freq, d.cpu_guardband) * o.pd.seconds() +
        platform.cpu.idle_power(o.cpu_freq) *
            (o.cpu_dvfs + o.transfer + (o.span - o.cpu_lane)).seconds();
    const double gpu_j =
        platform.gpu.busy_power(o.gpu_freq, d.gpu_guardband) *
            (o.pu_tmu + o.abft_time).seconds() +
        platform.gpu.idle_power(o.gpu_freq) *
            (o.gpu_dvfs + (o.span - o.gpu_lane)).seconds();
    EXPECT_NEAR(o.cpu_energy_j, cpu_j, 1e-12 * cpu_j) << k;
    EXPECT_NEAR(o.gpu_energy_j, gpu_j, 1e-12 * gpu_j) << k;
  }
}

TEST(Pipeline, SlackStartsPositiveFlipsNegative) {
  // Paper Fig. 2: CPU-side slack early, GPU-side slack late.
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config());
  std::vector<double> slack;
  for (int k = 0; k < pipe.num_iterations(); ++k) {
    slack.push_back(
        pipe.run_iteration(k, base_decision(platform)).slack.seconds());
  }
  EXPECT_GT(slack[1], 0.0);
  EXPECT_LT(slack[pipe.num_iterations() - 2], 0.0);
  // Exactly one sign change (monotone workload shrink).
  int flips = 0;
  for (std::size_t i = 1; i + 1 < slack.size(); ++i) {
    if ((slack[i] > 0) != (slack[i + 1] > 0)) ++flips;
  }
  EXPECT_EQ(flips, 1);
}

TEST(Pipeline, DvfsLatencyChargedOnChange) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config());
  pipe.run_iteration(0, base_decision(platform));
  IterationDecision d = base_decision(platform);
  d.gpu_freq = 1000;
  const IterationOutcome o = pipe.run_iteration(1, d);
  EXPECT_EQ(o.gpu_dvfs, platform.gpu.dvfs_latency);
  // Unchanged request is free.
  const IterationOutcome o2 = pipe.run_iteration(2, d);
  EXPECT_EQ(o2.gpu_dvfs, SimTime::zero());
}

TEST(Pipeline, KeepsFrequencyWhenNotAdjusting) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config());
  IterationDecision d = base_decision(platform);
  d.gpu_freq = 900;
  pipe.run_iteration(0, d);
  EXPECT_EQ(pipe.gpu_freq(), 900);
  IterationDecision keep;  // adjust flags false
  const IterationOutcome o = pipe.run_iteration(1, keep);
  EXPECT_EQ(o.gpu_freq, 900);
}

TEST(Pipeline, HaltIdleReducesEnergy) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline a(platform, config());
  HybridPipeline b(platform, config());
  IterationDecision d = base_decision(platform);
  const IterationOutcome oa = a.run_iteration(1, d);
  d.halt_idle_cpu = true;
  d.halt_idle_gpu = true;
  const IterationOutcome ob = b.run_iteration(1, d);
  // Iteration 1 has CPU-side slack -> halting the idle CPU must save energy.
  EXPECT_LT(ob.cpu_energy_j, oa.cpu_energy_j);
  EXPECT_EQ(ob.span, oa.span);  // performance untouched
}

TEST(Pipeline, AbftAddsGpuLaneTimeAndEnergy) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline a(platform, config());
  HybridPipeline b(platform, config());
  IterationDecision d = base_decision(platform);
  const IterationOutcome oa = a.run_iteration(0, d);
  d.abft_mode = abft::ChecksumMode::Full;
  const IterationOutcome ob = b.run_iteration(0, d);
  EXPECT_GT(ob.abft_time, SimTime::zero());
  EXPECT_GT(ob.gpu_lane, oa.gpu_lane);
  EXPECT_GT(ob.gpu_energy_j, oa.gpu_energy_j);
}

TEST(Pipeline, OptimizedGuardbandSavesBusyEnergy) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline a(platform, config());
  HybridPipeline b(platform, config());
  IterationDecision d = base_decision(platform);
  const IterationOutcome oa = a.run_iteration(0, d);
  d.cpu_guardband = hw::Guardband::Optimized;
  d.gpu_guardband = hw::Guardband::Optimized;
  const IterationOutcome ob = b.run_iteration(0, d);
  EXPECT_LT(ob.gpu_energy_j, oa.gpu_energy_j);
  EXPECT_LT(ob.cpu_energy_j, oa.cpu_energy_j);
  EXPECT_EQ(ob.span, oa.span);
}

TEST(Pipeline, NoiseIsDeterministicPerSeed) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline a(platform, config(30720, 512, true));
  HybridPipeline b(platform, config(30720, 512, true));
  for (int k = 0; k < 5; ++k) {
    const auto oa = a.run_iteration(k, base_decision(platform));
    const auto ob = b.run_iteration(k, base_decision(platform));
    ASSERT_EQ(oa.span, ob.span);
    ASSERT_EQ(oa.cpu_energy_j, ob.cpu_energy_j);
  }
}

TEST(Pipeline, NoiseFactorGrowsWithProgress) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline pipe(platform, config(30720, 512, true));
  const int last = pipe.num_iterations() - 1;
  EXPECT_GT(pipe.noise_factor(hw::DeviceId::Gpu, last),
            pipe.noise_factor(hw::DeviceId::Gpu, 0));
}

TEST(Pipeline, BaseNormalizedProfilesUndoFrequencyScaling) {
  const auto platform = hw::PlatformProfile::paper_default();
  HybridPipeline a(platform, config());
  HybridPipeline b(platform, config());
  IterationDecision d = base_decision(platform);
  const auto oa = a.run_iteration(0, d);
  d.gpu_freq = 2600;  // clamped to 1300 under default guardband... use opt
  d.gpu_guardband = hw::Guardband::Optimized;
  d.gpu_freq = 2200;
  const auto ob = b.run_iteration(0, d);
  // Normalized GPU profile should agree regardless of the running clock.
  EXPECT_NEAR(oa.pu_tmu_base_s, ob.pu_tmu_base_s, 1e-9);
}

}  // namespace
}  // namespace bsr::sched
