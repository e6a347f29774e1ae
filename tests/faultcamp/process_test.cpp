// Unit tests for the seeded fault processes (faultcamp/process.hpp):
// validation, fingerprint collapse, stream determinism and decorrelation,
// clock-dependent rate scaling, burst/hazard variants, the deterministic
// fixed replay, and the resolution rules per checksum mode.
#include "faultcamp/process.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace bsr::faultcamp {
namespace {

Spec poisson_spec(double mult = 1.0) {
  Spec s;
  s.enabled = true;
  s.process = ProcessKind::Poisson;
  s.rate_multiplier = mult;
  return s;
}

const hw::ErrorRates kMidRates{.d0 = 0.03, .d1 = 0.0, .d2 = 0.0};
const hw::ErrorRates kTopRates{.d0 = 0.35, .d1 = 0.025, .d2 = 3e-7};
const hw::ErrorRates kSafeRates{};

TEST(FaultSpecValidate, RejectsOutOfRangeFields) {
  const auto expect_reject = [](Spec s, const char* what) {
    try {
      validate(s);
      FAIL() << "expected rejection: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("faults:", 0), 0) << e.what();
    }
  };
  Spec s;
  s.rate_multiplier = -1.0;
  expect_reject(s, "negative rate_multiplier");
  s = Spec{};
  s.background_rate_per_s = -0.5;
  expect_reject(s, "negative background rate");
  s = Spec{};
  s.burst_mean = 0.5;
  expect_reject(s, "burst_mean below 1");
  s = Spec{};
  s.hazard_sigma = -0.1;
  expect_reject(s, "negative hazard sigma");
  s = Spec{};
  s.fixed_d1 = -1;
  expect_reject(s, "negative fixed count");
  s = Spec{};
  s.correction_s = -1e-3;
  expect_reject(s, "negative correction latency");
  // +inf meets every lower bound, but no process is defined there.
  const double inf = std::numeric_limits<double>::infinity();
  for (double Spec::*field :
       {&Spec::rate_multiplier, &Spec::background_rate_per_s,
        &Spec::burst_mean, &Spec::hazard_sigma, &Spec::correction_s}) {
    s = Spec{};
    s.*field = inf;
    expect_reject(s, "infinite double field");
  }
  validate(Spec{});  // the default is valid
}

/// The fragment appended to an empty string.
std::string fingerprint_fragment(const Spec& spec) {
  std::string out;
  append_fingerprint_fragment(out, spec);
  return out;
}

TEST(FaultSpecFingerprint, DisabledCollapsesToOneKey) {
  Spec loud;
  loud.rate_multiplier = 99.0;
  loud.burst_mean = 7.0;
  loud.seed = 123;
  EXPECT_EQ(fingerprint_fragment(loud), "flt=0");
  EXPECT_EQ(fingerprint_fragment(Spec{}), "flt=0");

  loud.enabled = true;
  const std::string on = fingerprint_fragment(loud);
  EXPECT_NE(on, "flt=0");
  // The fragment is appended after what the buffer already holds.
  std::string out = "var=0;";
  append_fingerprint_fragment(out, loud);
  EXPECT_EQ(out, "var=0;" + on);
  Spec other = loud;
  other.rate_multiplier = 98.0;
  EXPECT_NE(fingerprint_fragment(other), on);
  other = loud;
  other.rollback = !other.rollback;
  EXPECT_NE(fingerprint_fragment(other), on);
}

TEST(FaultProcess, DisabledOrZeroRateDrawsNothing) {
  FaultProcess off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.sample(kTopRates, SimTime::from_seconds(100.0)).total(), 0);

  FaultProcess zero(poisson_spec(0.0), 42, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(zero.sample(kTopRates, SimTime::from_seconds(100.0)).total(), 0);
  }
  // Safe clocks produce no faults whatever the multiplier.
  FaultProcess hot(poisson_spec(1e4), 42, 1);
  EXPECT_EQ(hot.sample(kSafeRates, SimTime::from_seconds(100.0)).total(), 0);
}

TEST(FaultProcess, SampleSequenceIsSeedDeterministic) {
  const Spec spec = poisson_spec(40.0);
  FaultProcess a(spec, 42, 1);
  FaultProcess b(spec, 42, 1);
  FaultProcess other_seed(spec, 43, 1);
  FaultProcess other_lane(spec, 42, 2);
  std::int64_t total = 0;
  bool seed_differs = false;
  bool lane_differs = false;
  for (int i = 0; i < 32; ++i) {
    const SimTime w = SimTime::from_seconds(0.5);
    const FaultCounts ca = a.sample(kTopRates, w);
    const FaultCounts cb = b.sample(kTopRates, w);
    EXPECT_EQ(ca.d0, cb.d0);
    EXPECT_EQ(ca.d1, cb.d1);
    EXPECT_EQ(ca.d2, cb.d2);
    total += ca.total();
    seed_differs |= other_seed.sample(kTopRates, w).total() != ca.total();
    lane_differs |= other_lane.sample(kTopRates, w).total() != ca.total();
  }
  EXPECT_GT(total, 0);
  EXPECT_TRUE(seed_differs) << "seed 43 replayed seed 42's stream";
  EXPECT_TRUE(lane_differs) << "lane 2 replayed lane 1's stream";
}

TEST(FaultProcess, RateScalesWithClock) {
  // The same process samples far more faults at the top overclocked state
  // than at the mildly overclocked one — the paper's premise.
  FaultProcess p(poisson_spec(10.0), 7, 1);
  std::int64_t mid = 0;
  std::int64_t top = 0;
  for (int i = 0; i < 64; ++i) {
    mid += p.sample(kMidRates, SimTime::from_seconds(0.25)).total();
    top += p.sample(kTopRates, SimTime::from_seconds(0.25)).total();
  }
  EXPECT_GT(top, 4 * mid) << "top=" << top << " mid=" << mid;
}

TEST(FaultProcess, ScalesWithMultiplierAndBackground) {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  FaultProcess plo(poisson_spec(5.0), 11, 1);
  FaultProcess phi(poisson_spec(50.0), 11, 1);
  for (int i = 0; i < 64; ++i) {
    lo += plo.sample(kMidRates, SimTime::from_seconds(0.5)).total();
    hi += phi.sample(kMidRates, SimTime::from_seconds(0.5)).total();
  }
  EXPECT_GT(hi, 4 * lo);

  // Background arrivals strike even the fault-free state, as 0D.
  Spec bg = poisson_spec(0.0);
  bg.background_rate_per_s = 2.0;
  FaultProcess pbg(bg, 11, 1);
  FaultCounts c;
  for (int i = 0; i < 32; ++i) {
    const FaultCounts s = pbg.sample(kSafeRates, SimTime::from_seconds(1.0));
    c.d0 += s.d0;
    c.d1 += s.d1;
    c.d2 += s.d2;
  }
  EXPECT_GT(c.d0, 0);
  EXPECT_EQ(c.d1, 0);
  EXPECT_EQ(c.d2, 0);
}

TEST(FaultProcess, BurstsMultiplyArrivals) {
  Spec plain = poisson_spec(10.0);
  Spec bursty = plain;
  bursty.burst_mean = 4.0;
  std::int64_t plain_total = 0;
  std::int64_t burst_total = 0;
  FaultProcess pp(plain, 3, 1);
  FaultProcess pb(bursty, 3, 1);
  for (int i = 0; i < 128; ++i) {
    plain_total += pp.sample(kMidRates, SimTime::from_seconds(0.5)).total();
    burst_total += pb.sample(kMidRates, SimTime::from_seconds(0.5)).total();
  }
  // Same arrival stream, ~4 faults per arrival: expect roughly 4x, and
  // certainly more than 2x.
  EXPECT_GT(burst_total, 2 * plain_total);
}

TEST(FaultProcess, HazardIsPerLaneAndReproducible) {
  Spec s = poisson_spec(1.0);
  EXPECT_DOUBLE_EQ(FaultProcess(s, 5, 1).hazard(), 1.0);
  s.hazard_sigma = 0.8;
  const double h1 = FaultProcess(s, 5, 1).hazard();
  const double h2 = FaultProcess(s, 5, 2).hazard();
  EXPECT_DOUBLE_EQ(FaultProcess(s, 5, 1).hazard(), h1);
  EXPECT_NE(h1, h2);
  EXPECT_GT(h1, 0.0);
  EXPECT_GT(h2, 0.0);
}

TEST(FaultProcess, FixedReplayGatesEachClassOnItsRate) {
  Spec s;
  s.enabled = true;
  s.process = ProcessKind::Fixed;
  s.fixed_d0 = 2;
  s.fixed_d1 = 1;
  s.fixed_d2 = 3;
  FaultProcess p(s, 42, 1);
  const SimTime w = SimTime::from_seconds(0.1);

  const FaultCounts top = p.sample(kTopRates, w);
  EXPECT_EQ(top.d0, 2);
  EXPECT_EQ(top.d1, 1);
  EXPECT_EQ(top.d2, 3);
  // 1800-MHz regime: only 0D exposed.
  const FaultCounts mid = p.sample(kMidRates, w);
  EXPECT_EQ(mid.d0, 2);
  EXPECT_EQ(mid.d1, 0);
  EXPECT_EQ(mid.d2, 0);
  EXPECT_EQ(p.sample(kSafeRates, w).total(), 0);
  EXPECT_EQ(p.sample(kTopRates, SimTime::zero()).total(), 0);

  // The rate multiplier scales the fixed counts too (rounded), so a
  // campaign's rate axis means the same thing under both processes.
  s.rate_multiplier = 3.0;
  FaultProcess tripled(s, 42, 1);
  const FaultCounts t3 = tripled.sample(kTopRates, w);
  EXPECT_EQ(t3.d0, 6);
  EXPECT_EQ(t3.d1, 3);
  EXPECT_EQ(t3.d2, 9);
  s.rate_multiplier = 0.0;
  FaultProcess zeroed(s, 42, 1);
  EXPECT_EQ(zeroed.sample(kTopRates, w).total(), 0);
}

TEST(FaultResolve, PerModeRulesAndInvariant) {
  const FaultCounts counts{.d0 = 5, .d1 = 3, .d2 = 2};

  const Resolution none = resolve(counts, abft::ChecksumMode::None, true);
  EXPECT_EQ(none.corrected(), 0);
  EXPECT_EQ(none.unrecovered, 10);
  EXPECT_EQ(none.rollbacks, 0);

  const Resolution single =
      resolve(counts, abft::ChecksumMode::SingleSide, true);
  EXPECT_EQ(single.corrected_d0, 5);
  EXPECT_EQ(single.corrected_d1, 0);
  EXPECT_EQ(single.uncorrectable, 5);
  EXPECT_EQ(single.recovered, 5);
  EXPECT_EQ(single.rollbacks, 1);

  const Resolution single_norb =
      resolve(counts, abft::ChecksumMode::SingleSide, false);
  EXPECT_EQ(single_norb.recovered, 0);
  EXPECT_EQ(single_norb.unrecovered, 5);
  EXPECT_EQ(single_norb.rollbacks, 0);

  const Resolution full = resolve(counts, abft::ChecksumMode::Full, true);
  EXPECT_EQ(full.corrected_d0, 5);
  EXPECT_EQ(full.corrected_d1, 3);
  EXPECT_EQ(full.uncorrectable, 2);
  EXPECT_EQ(full.recovered, 2);
  EXPECT_EQ(full.rollbacks, 1);

  for (const Resolution& r : {none, single, single_norb, full}) {
    EXPECT_EQ(r.corrected() + r.recovered + r.unrecovered,
              r.injected.total());
  }

  // A clean window triggers nothing.
  const Resolution clean =
      resolve(FaultCounts{}, abft::ChecksumMode::SingleSide, true);
  EXPECT_EQ(clean.rollbacks, 0);
  EXPECT_EQ(clean.injected.total(), 0);
}

}  // namespace
}  // namespace bsr::faultcamp
