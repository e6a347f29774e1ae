#include "abft/adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "abft/coverage.hpp"
#include "hw/clock_table.hpp"

namespace bsr::abft {
namespace {

hw::DeviceModel gpu() { return hw::PlatformProfile::paper_default().gpu; }

TEST(AdaptiveAbft, FaultFreeFrequencyDisablesAbft) {
  const AbftDecision d = abft_oc(0.999999, 1700, gpu(), 2.0, 3600);
  EXPECT_EQ(d.mode, ChecksumMode::None);
  EXPECT_EQ(d.freq, 1700);
  EXPECT_DOUBLE_EQ(d.coverage, 1.0);
}

TEST(AdaptiveAbft, BaseClockNeedsNothing) {
  const AbftDecision d = abft_oc(0.999999, 1300, gpu(), 2.0, 3600);
  EXPECT_EQ(d.mode, ChecksumMode::None);
}

TEST(AdaptiveAbft, Mild0DOverclockUsesSingleSide) {
  // 1800-1900 MHz: 0D-only regime, cheap single-side checksums suffice.
  const AbftDecision d = abft_oc(0.999, 1900, gpu(), 1.0, 3600);
  EXPECT_EQ(d.freq, 1900);
  EXPECT_EQ(d.mode, ChecksumMode::SingleSide);
  EXPECT_GE(d.coverage, 0.999);
}

TEST(AdaptiveAbft, D1RegimeRequiresFull) {
  // At 2200 MHz 1D errors appear; single-side cannot reach the target.
  const AbftDecision d = abft_oc(0.99, 2200, gpu(), 1.0, 3600);
  EXPECT_EQ(d.freq, 2200);
  EXPECT_EQ(d.mode, ChecksumMode::Full);
  EXPECT_GE(d.coverage, 0.99);
}

TEST(AdaptiveAbft, ImpossibleTargetLowersFrequency) {
  // Demanding ~certainty with a long exposure: Algorithm 1 walks the clock
  // down until the rates vanish (fault-free), disabling ABFT.
  const AbftDecision d = abft_oc(0.99999999, 2200, gpu(), 1000.0, 3600);
  EXPECT_LE(d.freq, 1700);
  EXPECT_EQ(d.mode, ChecksumMode::None);
}

TEST(AdaptiveAbft, ClampsAboveRangeRequests) {
  const AbftDecision d = abft_oc(0.5, 9999, gpu(), 0.001, 3600);
  EXPECT_LE(d.freq, gpu().freq.max_oc_mhz);
}

TEST(AdaptiveAbft, ShortExposureToleratesHighClock) {
  // Tiny ops accumulate almost no Poisson mass: even 2200 MHz is coverable
  // with single-side at a modest target.
  const AbftDecision d = abft_oc(0.999, 2200, gpu(), 0.001, 3600);
  EXPECT_EQ(d.freq, 2200);
  EXPECT_NE(d.mode, ChecksumMode::None);
}

TEST(AdaptiveAbft, PrefersSingleOverFullWhenBothSuffice) {
  // In the 0D-only regime both schemes cover; Algorithm 1 must pick single.
  const AbftDecision d = abft_oc(0.99, 1800, gpu(), 1.0, 3600);
  EXPECT_EQ(d.mode, ChecksumMode::SingleSide);
}

TEST(AdaptiveAbft, CoverageMonotoneInFrequencyChoice) {
  // The decision's reported coverage always meets the request when ABFT is on.
  for (hw::Mhz f = 1800; f <= 2200; f += 100) {
    const AbftDecision d = abft_oc(0.999, f, gpu(), 0.5, 3600);
    if (d.mode != ChecksumMode::None) {
      EXPECT_GE(d.coverage, 0.999) << f;
    }
  }
}

/// Algorithm 1 rebuilt from the public per-scheme coverage functions, each
/// sum evaluated on its own at every step: the reference the ladder's
/// shared-row, bound-pruned steps must reproduce bit for bit. Counts the
/// steps whose coverage bound lets the ladder skip both sums.
AbftDecision reference_ladder(double fc_desired, hw::Mhz f_desired,
                              const hw::DeviceModel& dev, double t_base,
                              std::int64_t blocks, int& prunable_steps) {
  AbftDecision d;
  d.freq = dev.freq.clamp(f_desired, /*optimized_guardband=*/true);
  for (;;) {
    const hw::ErrorRates rates =
        dev.errors.rates(d.freq, hw::Guardband::Optimized);
    if (rates.fault_free()) {
      d.mode = ChecksumMode::None;
      d.coverage = 1.0;
      return d;
    }
    const double t = t_base * static_cast<double>(dev.freq.base_mhz) /
                     static_cast<double>(d.freq);
    const bool at_floor = d.freq - dev.freq.step_mhz < dev.freq.min_mhz;
    if (!at_floor &&
        coverage_bound(rates, t, blocks).full < fc_desired - kBoundSlack) {
      ++prunable_steps;
    }
    const double single = fc_single(rates, t, blocks);
    if (single >= fc_desired) {
      d.mode = ChecksumMode::SingleSide;
      d.coverage = single;
      return d;
    }
    const double full = fc_full(rates, t, blocks);
    d.mode = ChecksumMode::Full;
    d.coverage = full;
    if (full >= fc_desired || at_floor) return d;
    d.freq -= dev.freq.step_mhz;
  }
}

bool same_decision(const AbftDecision& a, const AbftDecision& b) {
  return std::memcmp(&a.freq, &b.freq, sizeof a.freq) == 0 &&
         std::memcmp(&a.mode, &b.mode, sizeof a.mode) == 0 &&
         std::memcmp(&a.coverage, &b.coverage, sizeof a.coverage) == 0;
}

/// Both abft_oc overloads against the reference, by memcmp.
struct LadderCheck {
  int protected_decisions = 0;
  int prunable_steps = 0;

  void operator()(double fc, hw::Mhz f, const hw::DeviceModel& dev,
                  double t, std::int64_t blocks) {
    const hw::ClockTable table(dev);
    const AbftDecision want =
        reference_ladder(fc, f, dev, t, blocks, prunable_steps);
    const AbftDecision got = abft_oc(fc, f, dev, t, blocks);
    const AbftDecision from_table = abft_oc(fc, f, table, t, blocks);
    EXPECT_TRUE(same_decision(want, got))
        << std::hexfloat << "fc=" << fc << " f=" << f << " t=" << t
        << " S=" << blocks << ": " << got.freq << " "
        << static_cast<int>(got.mode) << " " << got.coverage << " vs "
        << want.freq << " " << static_cast<int>(want.mode) << " "
        << want.coverage;
    EXPECT_TRUE(same_decision(want, from_table))
        << std::hexfloat << "fc=" << fc << " f=" << f << " t=" << t
        << " S=" << blocks;
    if (want.mode != ChecksumMode::None) ++protected_decisions;
  }
};

hw::DeviceModel scaled_gpu(double multiplier) {
  hw::DeviceModel dev = gpu();
  dev.errors = dev.errors.scaled(multiplier);
  return dev;
}

TEST(AdaptiveAbft, LadderMatchesAReferenceBuiltOnThePublicSums) {
  LadderCheck check;
  for (const double fc : {0.5, 0.99, 0.999, 0.999999, 0.99999999}) {
    for (const double multiplier : {1.0, 150.0, 225.0}) {
      const hw::DeviceModel dev = scaled_gpu(multiplier);
      for (double t = 1e-4; t < 20.0; t *= 3.1622776601683795) {
        for (const std::int64_t blocks : {16, 3600, 14400}) {
          for (hw::Mhz f = 1300; f <= 2200; f += 100) {
            check(fc, f, dev, t, blocks);
          }
        }
      }
    }
  }
  EXPECT_GT(check.protected_decisions, 1200);
  EXPECT_GT(check.prunable_steps, 2000);

  // Targets on a step's own coverages, and one ulp either side: the bound's
  // slack must never skip a step that reaches the target exactly.
  LadderCheck edge;
  for (const double multiplier : {1.0, 150.0, 225.0}) {
    const hw::DeviceModel dev = scaled_gpu(multiplier);
    for (double t = 1e-3; t < 20.0; t *= 10.0) {
      for (const std::int64_t blocks : {16, 3600}) {
        for (hw::Mhz f = 1800; f <= 2200; f += 100) {
          const hw::ErrorRates r =
              dev.errors.rates(f, hw::Guardband::Optimized);
          const double tf = t * static_cast<double>(dev.freq.base_mhz) /
                            static_cast<double>(f);
          for (const double fc :
               {fc_single(r, tf, blocks), fc_full(r, tf, blocks)}) {
            for (const double target : {std::nextafter(fc, 0.0), fc,
                                        std::nextafter(fc, 2.0)}) {
              for (hw::Mhz start = f; start <= 2200; start += 100) {
                edge(target, start, dev, t, blocks);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(edge.protected_decisions, 2000);
  EXPECT_GT(edge.prunable_steps, 2000);

  // Floors that are not fault-free (the floor step's full coverage is the
  // decision's), negative rates (no bound applies) and non-finite windows.
  hw::DeviceModel floor_dev = gpu();
  floor_dev.freq.min_mhz = 1900;
  hw::DeviceModel faulty = gpu();
  faulty.errors = hw::ErrorRateModel(std::map<hw::Mhz, hw::ErrorRates>{
      {300, {.d0 = 0.01, .d1 = 0.001, .d2 = 1e-9}},
      {2200, {.d0 = 0.35, .d1 = 0.025, .d2 = 3e-7}}});
  hw::DeviceModel negative = gpu();
  negative.errors = hw::ErrorRateModel(std::map<hw::Mhz, hw::ErrorRates>{
      {1800, {.d0 = -0.02, .d1 = 0.03}},
      {2000, {.d0 = 0.3, .d1 = -0.01, .d2 = 1e-7}},
      {2200, {.d0 = 0.35, .d1 = 0.025, .d2 = -1e-7}}});
  LadderCheck odd;
  for (const hw::DeviceModel* dev : {&floor_dev, &faulty, &negative}) {
    for (const double fc : {0.5, 0.999999, 0.99999999, 1.0}) {
      for (const double t :
           {1e-3, 0.1, 10.0, 1000.0, std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN()}) {
        for (hw::Mhz f = 1300; f <= 2200; f += 100) odd(fc, f, *dev, t, 3600);
      }
    }
  }
  EXPECT_GT(odd.protected_decisions, 400);
  EXPECT_GT(odd.prunable_steps, 1000);
}

TEST(AdaptiveAbft, ALaneKeepingAnUncoverableClockRunsFull) {
  // At 2200 MHz a 1000 s window reaches the target under no scheme: the
  // ladder walks down to a fault-free clock and turns ABFT off there. A lane
  // that keeps running at 2200 MHz needs full checksums.
  const AbftDecision ladder = abft_oc(0.99999999, 2200, gpu(), 1000.0, 3600);
  ASSERT_LE(ladder.freq, 1700);
  ASSERT_EQ(ladder.mode, ChecksumMode::None);
  EXPECT_EQ(mode_at(0.99999999, 2200, gpu(), 1000.0, 3600),
            ChecksumMode::Full);
  const hw::DeviceModel dev = gpu();
  EXPECT_EQ(mode_at(0.99999999, 2200, hw::ClockTable(dev), 1000.0, 3600),
            ChecksumMode::Full);
  // A clock the ladder keeps runs with the ladder's own mode.
  EXPECT_EQ(mode_at(0.999, 1900, gpu(), 1.0, 3600), ChecksumMode::SingleSide);
  EXPECT_EQ(mode_at(0.99, 2200, gpu(), 1.0, 3600), ChecksumMode::Full);
  EXPECT_EQ(mode_at(0.99999999, 1700, gpu(), 1000.0, 3600),
            ChecksumMode::None);
}

}  // namespace
}  // namespace bsr::abft
