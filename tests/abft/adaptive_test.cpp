#include "abft/adaptive.hpp"

#include <gtest/gtest.h>

#include <cstring>

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
/// sum evaluated on its own: the reference the ladder's shared-row steps
/// must reproduce bit for bit.
AbftDecision reference_ladder(double fc_desired, hw::Mhz f_desired,
                              const hw::DeviceModel& dev, double t_base,
                              std::int64_t blocks) {
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
    const double single = fc_single(rates, t, blocks);
    if (single >= fc_desired) {
      d.mode = ChecksumMode::SingleSide;
      d.coverage = single;
      return d;
    }
    const double full = fc_full(rates, t, blocks);
    d.mode = ChecksumMode::Full;
    d.coverage = full;
    if (full >= fc_desired || d.freq - dev.freq.step_mhz < dev.freq.min_mhz) {
      return d;
    }
    d.freq -= dev.freq.step_mhz;
  }
}

bool same_decision(const AbftDecision& a, const AbftDecision& b) {
  return std::memcmp(&a.freq, &b.freq, sizeof a.freq) == 0 &&
         std::memcmp(&a.mode, &b.mode, sizeof a.mode) == 0 &&
         std::memcmp(&a.coverage, &b.coverage, sizeof a.coverage) == 0;
}

TEST(AdaptiveAbft, LadderMatchesAReferenceBuiltOnThePublicSums) {
  int protected_steps = 0;
  for (const double multiplier : {1.0, 150.0, 225.0}) {
    hw::DeviceModel dev = gpu();
    dev.errors = dev.errors.scaled(multiplier);
    const hw::ClockTable table(dev);
    for (double t = 1e-4; t < 20.0; t *= 3.1622776601683795) {
      for (const std::int64_t blocks : {16, 3600, 14400}) {
        for (hw::Mhz f = 1300; f <= 2200; f += 100) {
          const AbftDecision want =
              reference_ladder(0.999999, f, dev, t, blocks);
          const AbftDecision got = abft_oc(0.999999, f, dev, t, blocks);
          const AbftDecision from_table =
              abft_oc(0.999999, f, table, t, blocks);
          EXPECT_TRUE(same_decision(want, got))
              << "x" << multiplier << " t=" << t << " S=" << blocks
              << " f=" << f << ": " << got.freq << " " << got.coverage
              << " vs " << want.freq << " " << want.coverage;
          EXPECT_TRUE(same_decision(want, from_table))
              << "x" << multiplier << " t=" << t << " S=" << blocks
              << " f=" << f;
          if (want.mode != ChecksumMode::None) ++protected_steps;
        }
      }
    }
  }
  EXPECT_GT(protected_steps, 150);
}

}  // namespace
}  // namespace bsr::abft
