#include "abft/coverage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "hw/platform.hpp"

namespace bsr::abft {
namespace {

TEST(Coverage, FaultFreeIsCertain) {
  const hw::ErrorRates r{};
  EXPECT_DOUBLE_EQ(fc_single(r, 10.0, 3600), 1.0);
  EXPECT_DOUBLE_EQ(fc_full(r, 10.0, 3600), 1.0);
}

TEST(Coverage, Pure0DSingleNearOne) {
  // Only 0D errors; single-side handles them, so coverage limited only by
  // the distinct-block collision probability.
  const hw::ErrorRates r{.d0 = 0.1, .d1 = 0.0, .d2 = 0.0};
  const double fc = fc_single(r, 1.0, 3600);
  EXPECT_GT(fc, 0.9999);
  EXPECT_LT(fc, 1.0);
}

TEST(Coverage, D1ErrorsKillSingleButNotFull) {
  const hw::ErrorRates r{.d0 = 0.0, .d1 = 0.5, .d2 = 0.0};
  const double t = 1.0;
  EXPECT_NEAR(fc_single(r, t, 3600), std::exp(-0.5), 1e-6);
  EXPECT_GT(fc_full(r, t, 3600), 0.999);
}

TEST(Coverage, D2ErrorsKillBoth) {
  const hw::ErrorRates r{.d0 = 0.0, .d1 = 0.0, .d2 = 1.0};
  EXPECT_NEAR(fc_single(r, 2.0, 3600), std::exp(-2.0), 1e-9);
  EXPECT_NEAR(fc_full(r, 2.0, 3600), std::exp(-2.0), 1e-9);
}

TEST(Coverage, FullAlwaysAtLeastSingle) {
  for (double d0 : {0.01, 0.5, 2.0}) {
    for (double d1 : {0.0, 0.05, 0.5}) {
      const hw::ErrorRates r{.d0 = d0, .d1 = d1, .d2 = 1e-6};
      EXPECT_GE(fc_full(r, 1.5, 3600) + 1e-12, fc_single(r, 1.5, 3600));
    }
  }
}

TEST(Coverage, DecreasesWithExposureTime) {
  const hw::ErrorRates r{.d0 = 0.3, .d1 = 0.01, .d2 = 0.0};
  double prev = 1.0;
  for (double t : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    const double fc = fc_single(r, t, 3600);
    EXPECT_LT(fc, prev);
    prev = fc;
  }
}

TEST(Coverage, MoreBlocksImproveCollisionTerm) {
  const hw::ErrorRates r{.d0 = 5.0, .d1 = 0.0, .d2 = 0.0};
  EXPECT_GT(fc_single(r, 1.0, 36000), fc_single(r, 1.0, 360));
}

TEST(Coverage, HighRateDrivesCoverageDown) {
  const hw::ErrorRates r{.d0 = 50.0, .d1 = 0.0, .d2 = 0.0};
  // Many 0D errors: collisions become likely even with many blocks.
  EXPECT_LT(fc_single(r, 1.0, 100), 0.05);
}

TEST(Coverage, LabelHelper) {
  EXPECT_STREQ(coverage_label_static(1.0, true), "Fault-free");
  EXPECT_STREQ(coverage_label_static(0.9999995, false), "Full Coverage");
  EXPECT_EQ(coverage_label_static(0.99, false), nullptr);
}

TEST(Coverage, BoundedInUnitInterval) {
  // 3e9 and 1e300 give Poisson means past the int range, and NaN none at
  // all; each is bounded at `blocks` terms or returns 0.
  for (double d0 : {0.0, 1.0, 10.0, 100.0, 3e9, 1e300,
                    std::numeric_limits<double>::quiet_NaN()}) {
    const hw::ErrorRates r{.d0 = d0, .d1 = d0 / 10, .d2 = d0 / 100};
    for (double t : {0.01, 1.0, 10.0}) {
      const double s = fc_single(r, t, 3600);
      const double f = fc_full(r, t, 3600);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0 + 1e-12);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0 + 1e-12);
    }
  }
}

// ---- Bit equivalence with the full sums -----------------------------------
//
// fc_single and fc_full stop summing once no remaining term can change the
// running sum. The references below are the full sums they replaced, with
// their pmf rows and distinct-block tables filled in full. Every comparison
// is a memcmp, so a result one ulp off or a flipped signed zero fails.

int ref_poisson_cutoff(double mean) {
  return static_cast<int>(mean + 10.0 * std::sqrt(std::max(mean, 1.0)) + 16.0);
}

constexpr int kRefLogTableSize = 4096;

const std::array<double, kRefLogTableSize>& ref_log_int_table() {
  static const std::array<double, kRefLogTableSize> table = [] {
    std::array<double, kRefLogTableSize> t{};
    for (int i = 2; i < kRefLogTableSize; ++i) {
      t[static_cast<std::size_t>(i)] = std::log(static_cast<double>(i));
    }
    return t;
  }();
  return table;
}

double ref_poisson_pmf(int k, double mean) {
  const std::array<double, kRefLogTableSize>& lt = ref_log_int_table();
  double log_p = -mean + k * std::log(std::max(mean, 1e-300));
  for (int i = 2; i <= k; ++i) {
    log_p -= i < kRefLogTableSize ? lt[static_cast<std::size_t>(i)]
                                  : std::log(static_cast<double>(i));
  }
  return std::exp(log_p);
}

double ref_fc_single(const hw::ErrorRates& rates, double t_seconds,
                     std::int64_t blocks) {
  if (rates.fault_free()) return 1.0;
  const double m0 = rates.d0 * t_seconds;
  const double s = static_cast<double>(blocks);
  double sum = 0.0;
  const int kmax =
      std::min<int>(ref_poisson_cutoff(m0), static_cast<int>(blocks));
  double prod = 1.0;
  bool zero = false;
  for (int k = 0; k <= kmax; ++k) {
    const double term = static_cast<double>(blocks - k) / s;
    if (!zero && term <= 0.0) zero = true;
    if (!zero) prod *= term;
    sum += ref_poisson_pmf(k, m0) * (zero ? 0.0 : prod);
  }
  return sum * std::exp(-rates.d1 * t_seconds) * std::exp(-rates.d2 * t_seconds);
}

double ref_fc_full(const hw::ErrorRates& rates, double t_seconds,
                   std::int64_t blocks) {
  if (rates.fault_free()) return 1.0;
  const double m0 = rates.d0 * t_seconds;
  const double m1 = rates.d1 * t_seconds;
  const double s = static_cast<double>(blocks);
  const int kmax =
      std::min<int>(ref_poisson_cutoff(m0), static_cast<int>(blocks));
  const int jmax =
      std::min<int>(ref_poisson_cutoff(m1), static_cast<int>(blocks));
  const int cmax = static_cast<int>(
      std::min<std::int64_t>(static_cast<std::int64_t>(kmax) + jmax, blocks));
  std::vector<double> pj(static_cast<std::size_t>(jmax) + 1);
  for (int j = 0; j <= jmax; ++j) pj[j] = ref_poisson_pmf(j, m1);
  std::vector<double> dbf(static_cast<std::size_t>(cmax) + 1);
  double prod = 1.0;
  bool zero = false;
  for (int c = 0; c <= cmax; ++c) {
    const double term = static_cast<double>(blocks - c) / s;
    if (!zero && term <= 0.0) zero = true;
    if (!zero) prod *= term;
    dbf[c] = zero ? 0.0 : prod;
  }
  double sum = 0.0;
  for (int k = 0; k <= kmax; ++k) {
    const double pk = ref_poisson_pmf(k, m0);
    const int jlim =
        static_cast<int>(std::min<std::int64_t>(jmax, blocks - k));
    for (int j = 0; j <= jlim; ++j) sum += pk * pj[j] * dbf[k + j];
  }
  return sum * std::exp(-rates.d2 * t_seconds);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

testing::AssertionResult matches_full_sums(const hw::ErrorRates& r, double t,
                                           std::int64_t blocks) {
  const double single = fc_single(r, t, blocks);
  const double full = fc_full(r, t, blocks);
  const double ref_single = ref_fc_single(r, t, blocks);
  const double ref_full = ref_fc_full(r, t, blocks);
  if (same_bits(single, ref_single) && same_bits(full, ref_full)) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << std::hexfloat << "d0=" << r.d0 << " d1=" << r.d1 << " d2=" << r.d2
         << " t=" << t << " blocks=" << blocks << ": fc_single " << single
         << " vs " << ref_single << ", fc_full " << full << " vs " << ref_full;
}

constexpr std::array<std::int64_t, 7> kBlockCounts = {1,   2,    3,    16,
                                                      400, 3600, 14400};

/// Log-uniform in [lo, hi].
double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

TEST(Coverage, PaperTableMatchesFullSums) {
  // Every 100 MHz point of the paper GPU's error table, the multipliers the
  // numeric demos use, and a log grid of exposure times from 1 us to 10 s.
  const hw::ErrorRateModel& errors = hw::PlatformProfile::paper_default().gpu.errors;
  for (double mult : {1.0, 150.0, 225.0}) {
    const hw::ErrorRateModel scaled = errors.scaled(mult);
    for (hw::Mhz f = 1800; f <= 2200; f += 100) {
      const hw::ErrorRates r = scaled.rates(f, hw::Guardband::Optimized);
      for (int step = 0; step <= 140; ++step) {
        const double t = std::pow(10.0, -6.0 + step / 20.0);
        for (std::int64_t blocks : kBlockCounts) {
          ASSERT_TRUE(matches_full_sums(r, t, blocks));
        }
      }
    }
  }
}

TEST(Coverage, RandomRatesMatchFullSums) {
  Rng rng(20231014);
  for (int i = 0; i < 50000; ++i) {
    // One draw in eight is an exact zero, which makes its pmf row a lone 1.
    const auto rate = [&rng] {
      const double d = log_uniform(rng, 1e-7, 80.0);
      return rng.next_below(8) == 0 ? 0.0 : d;
    };
    const double d0 = rate();
    const double d1 = rate();
    const double d2 = rng.next_below(2) == 0 ? 0.0 : log_uniform(rng, 1e-9, 1e-3);
    const std::int64_t blocks = kBlockCounts[rng.next_below(kBlockCounts.size())];
    ASSERT_TRUE(matches_full_sums({.d0 = d0, .d1 = d1, .d2 = d2}, 1.0, blocks));
  }
}

TEST(Coverage, NegativeRatesMatchFullSums) {
  // A negative m1 makes pj[0] = exp(-m1) exceed 1, so a row's terms are no
  // longer bounded by its pk; fc_full must not end its k loop on pk alone.
  // Magnitudes stay below 20: the references size their tables from the
  // bounds, which go negative for means below -26.
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const double a = log_uniform(rng, 1e-7, 20.0);
    const double b = log_uniform(rng, 1e-7, 20.0);
    hw::ErrorRates r;
    switch (i % 3) {
      case 0: r = {.d0 = a + b, .d1 = -b}; break;
      case 1: r = {.d0 = -a, .d1 = a + b}; break;
      default: r = {.d0 = -a, .d1 = -b, .d2 = a + b}; break;
    }
    const std::int64_t blocks = kBlockCounts[rng.next_below(kBlockCounts.size())];
    ASSERT_TRUE(matches_full_sums(r, 1.0, blocks));
  }
}

TEST(Coverage, NegativeBoundsSumNothing) {
  // Means below -26 make both summation bounds negative: no term to add, and
  // pmf and distinct-block tables of one entry.
  const hw::ErrorRates r{.d0 = -30.0, .d1 = -30.0, .d2 = 100.0};
  EXPECT_EQ(fc_single(r, 1.0, 3600), 0.0);
  EXPECT_EQ(fc_full(r, 1.0, 3600), 0.0);
}

// ---- Division-only bounds ---------------------------------------------------
//
// ABFT-OC skips a step's sums when coverage_bound says they miss the target
// by more than kBoundSlack, so a computed coverage must never exceed its
// bound by that much wherever the bound applies.

constexpr std::array<std::int64_t, 5> kBoundBlockCounts = {1, 2, 16, 3600,
                                                           16777216};

/// Checks one point; returns whether the bounds applied there.
bool check_bounds(const hw::ErrorRates& r, double t, std::int64_t blocks) {
  const CoverageBound bound = coverage_bound(r, t, blocks);
  if (bound.full == std::numeric_limits<double>::infinity()) {
    EXPECT_EQ(bound.single, bound.full);
    return false;
  }
  EXPECT_LE(fc_single(r, t, blocks), bound.single + kBoundSlack)
      << std::hexfloat << "d0=" << r.d0 << " d1=" << r.d1 << " d2=" << r.d2
      << " t=" << t << " blocks=" << blocks;
  EXPECT_LE(fc_full(r, t, blocks), bound.full + kBoundSlack)
      << std::hexfloat << "d0=" << r.d0 << " d1=" << r.d1 << " d2=" << r.d2
      << " t=" << t << " blocks=" << blocks;
  return true;
}

TEST(Coverage, BoundsHoldOnThePaperTable) {
  const hw::DeviceModel gpu = hw::PlatformProfile::paper_default().gpu;
  int applied = 0;
  for (double mult : {1.0, 150.0, 225.0, 1e4}) {
    const hw::ErrorRateModel scaled = gpu.errors.scaled(mult);
    for (hw::Mhz f = 1700; f <= gpu.freq.max_oc_mhz; f += 100) {
      const hw::ErrorRates r = scaled.rates(f, hw::Guardband::Optimized);
      for (int step = 0; step <= 90; ++step) {
        const double t = std::pow(10.0, -6.0 + step / 10.0);
        for (std::int64_t blocks : kBoundBlockCounts) {
          if (check_bounds(r, t, blocks)) ++applied;
        }
      }
    }
  }
  EXPECT_GT(applied, 7000);
}

TEST(Coverage, BoundsHoldOnRandomRates) {
  Rng rng(20261020);
  int applied = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto rate = [&rng](double lo, double hi) {
      return rng.next_below(8) == 0 ? 0.0 : log_uniform(rng, lo, hi);
    };
    const hw::ErrorRates r{.d0 = rate(1e-9, 80.0),
                           .d1 = rate(1e-9, 80.0),
                           .d2 = rate(1e-9, 1.0)};
    const std::int64_t blocks =
        kBoundBlockCounts[rng.next_below(kBoundBlockCounts.size())];
    if (check_bounds(r, 1.0, blocks)) ++applied;
  }
  EXPECT_GT(applied, 45000);
}

TEST(Coverage, BoundsApplyOnlyWhereTheirArgumentHolds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const hw::ErrorRates ok{.d0 = 0.3, .d1 = 0.02, .d2 = 1e-7};
  EXPECT_LT(coverage_bound(ok, 1.0, 3600).full, 1.0);
  EXPECT_LT(coverage_bound(ok, 1.0, 3600).single, 1.0);
  // A mean of exactly kBoundMaxMean still applies; one ulp more does not.
  EXPECT_LT(coverage_bound({.d0 = 32.0, .d1 = 32.0}, 1.0, 16).full, 1.0);
  EXPECT_EQ(
      coverage_bound({.d1 = std::nextafter(kBoundMaxMean, 128.0)}, 1.0, 16)
          .full,
      inf);
  for (const hw::ErrorRates& r : {hw::ErrorRates{.d0 = -0.1, .d1 = 0.2},
                                   hw::ErrorRates{.d0 = 0.2, .d1 = -0.1},
                                   hw::ErrorRates{.d0 = 0.2, .d2 = -1e-7},
                                   hw::ErrorRates{.d0 = nan},
                                   hw::ErrorRates{.d0 = 0.1, .d2 = inf}}) {
    EXPECT_EQ(coverage_bound(r, 1.0, 3600).full, inf) << r.d0 << " " << r.d1;
    EXPECT_EQ(coverage_bound(r, 1.0, 3600).single, inf);
  }
  for (const double t : {-1.0, inf, nan}) {
    EXPECT_EQ(coverage_bound(ok, t, 3600).full, inf) << t;
  }
  EXPECT_EQ(coverage_bound(ok, 1.0, 0).full, inf);
  EXPECT_EQ(coverage_bound(ok, 1.0, -3).full, inf);
}

}  // namespace
}  // namespace bsr::abft
