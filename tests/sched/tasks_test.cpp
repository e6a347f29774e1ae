#include "sched/tasks.hpp"

#include <gtest/gtest.h>

namespace bsr::sched {
namespace {

hw::PlatformProfile platform() { return hw::PlatformProfile::paper_default(); }

predict::WorkloadModel lu() {
  return {predict::Factorization::LU, 30720, 512, 8};
}

/// Iteration k of `wl` with the CPU at cpu_f and the GPU at gpu_f.
TaskDurations compute_durations(const predict::WorkloadModel& wl, int k,
                                const hw::PlatformProfile& p, hw::Mhz cpu_f,
                                hw::Mhz gpu_f, abft::ChecksumMode mode) {
  return sched::compute_durations(wl.iteration(k), p.link,
                                  hw::ClockState::at(p.cpu, cpu_f),
                                  hw::ClockState::at(p.gpu, gpu_f), mode);
}

TEST(Tasks, DurationsArePositiveEarly) {
  const TaskDurations d = compute_durations(lu(), 0, platform(), 3500, 1300,
                                            abft::ChecksumMode::None);
  EXPECT_GT(d.pd.ns(), 0);
  EXPECT_GT(d.pu.ns(), 0);
  EXPECT_GT(d.tmu.ns(), 0);
  EXPECT_GT(d.transfer.ns(), 0);
  EXPECT_EQ(d.chk_update, SimTime::zero());
  EXPECT_EQ(d.chk_verify, SimTime::zero());
}

TEST(Tasks, HigherGpuClockShortensGpuTasks) {
  const TaskDurations base = compute_durations(lu(), 0, platform(), 3500, 1300,
                                               abft::ChecksumMode::None);
  const TaskDurations oc = compute_durations(lu(), 0, platform(), 3500, 2200,
                                             abft::ChecksumMode::None);
  EXPECT_LT(oc.tmu, base.tmu);
  EXPECT_LT(oc.pu, base.pu);
  EXPECT_EQ(oc.pd, base.pd);  // CPU unaffected
}

TEST(Tasks, LowerCpuClockStretchesPd) {
  const TaskDurations base = compute_durations(lu(), 0, platform(), 3500, 1300,
                                               abft::ChecksumMode::None);
  const TaskDurations slow = compute_durations(lu(), 0, platform(), 800, 1300,
                                               abft::ChecksumMode::None);
  EXPECT_GT(slow.pd, base.pd);
  EXPECT_EQ(slow.tmu, base.tmu);
}

TEST(Tasks, AbftModesAddIncreasingOverhead) {
  const TaskDurations none = compute_durations(lu(), 5, platform(), 3500, 1300,
                                               abft::ChecksumMode::None);
  const TaskDurations single = compute_durations(
      lu(), 5, platform(), 3500, 1300, abft::ChecksumMode::SingleSide);
  const TaskDurations full = compute_durations(lu(), 5, platform(), 3500, 1300,
                                               abft::ChecksumMode::Full);
  EXPECT_EQ(none.chk_update, SimTime::zero());
  EXPECT_GT(single.chk_update, SimTime::zero());
  EXPECT_GT(full.chk_update, single.chk_update);
  EXPECT_GT(full.chk_verify, single.chk_verify);
}

TEST(Tasks, AbftOverheadIsModestFractionOfGpuWork) {
  // The paper measures ~8% (single) / ~12% (full) overall overhead; per
  // iteration the checksum lane cost must stay a small fraction.
  const TaskDurations full = compute_durations(lu(), 5, platform(), 3500, 1300,
                                               abft::ChecksumMode::Full);
  const double gpu_op = (full.pu + full.tmu).seconds();
  const double abft = (full.chk_update + full.chk_verify).seconds();
  EXPECT_GT(abft / gpu_op, 0.01);
  EXPECT_LT(abft / gpu_op, 0.30);
}

TEST(Tasks, EarlyIterationsAreGpuBound) {
  // Paper Fig. 2 / Fig. 10(a): slack on the CPU side at the start.
  const TaskDurations d = compute_durations(lu(), 1, platform(), 3500, 1300,
                                            abft::ChecksumMode::None);
  EXPECT_GT((d.pu + d.tmu).seconds(), (d.pd + d.transfer).seconds());
}

TEST(Tasks, LateIterationsAreCpuBound) {
  // Paper Fig. 10(b): slack flips to the GPU side near the end.
  const auto wl = lu();
  const int k = wl.num_iterations() - 5;
  const TaskDurations d =
      compute_durations(wl, k, platform(), 3500, 1300, abft::ChecksumMode::None);
  EXPECT_LT((d.pu + d.tmu).seconds(), (d.pd + d.transfer).seconds());
}

TEST(Tasks, DecisionDefaultsAreInert) {
  const IterationDecision d{};
  EXPECT_FALSE(d.adjust_cpu);
  EXPECT_FALSE(d.adjust_gpu);
  EXPECT_EQ(d.abft_mode, abft::ChecksumMode::None);
  EXPECT_EQ(d.cpu_guardband, hw::Guardband::Default);
}

}  // namespace
}  // namespace bsr::sched
