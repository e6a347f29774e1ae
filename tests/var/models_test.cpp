#include "var/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "hw/platform.hpp"

namespace bsr::var {
namespace {

Spec enabled_spec() {
  Spec s;
  s.enabled = true;
  s.drift = 0.02;
  s.transfer_jitter = 0.1;
  s.dvfs_jitter = 0.1;
  return s;
}

// ---- validation -------------------------------------------------------------

TEST(Validate, AcceptsDefaultsAndPresLikeSpecs) {
  EXPECT_NO_THROW(validate(Spec{}));
  EXPECT_NO_THROW(validate(enabled_spec()));
}

TEST(Validate, RejectsOutOfRangeFields) {
  const auto expect_reject = [](auto&& mutate, const char* what) {
    Spec s = enabled_spec();
    mutate(s);
    EXPECT_THROW(validate(s), std::invalid_argument) << what;
  };
  expect_reject([](Spec& s) { s.drift = -0.01; }, "negative drift");
  expect_reject([](Spec& s) { s.drift_cap = 0.0; }, "zero drift cap");
  expect_reject([](Spec& s) { s.transfer_jitter = -1.0; },
                "negative transfer jitter");
  expect_reject([](Spec& s) { s.dvfs_jitter = -0.5; }, "negative dvfs jitter");
  expect_reject([](Spec& s) { s.freq_quantum_mhz = -100; },
                "negative quantum");
  expect_reject([](Spec& s) { s.boost_budget_s = -1.0; }, "negative budget");
  expect_reject([](Spec& s) { s.boost_recovery = 0.0; }, "zero recovery");
  const auto nan = std::nan("");
  expect_reject([nan](Spec& s) { s.drift = nan; }, "NaN drift");
  // +inf meets every lower bound, but no model is defined there.
  const auto inf = std::numeric_limits<double>::infinity();
  expect_reject([inf](Spec& s) { s.drift = inf; }, "infinite drift");
  expect_reject([inf](Spec& s) { s.drift_cap = inf; }, "infinite drift cap");
  expect_reject([inf](Spec& s) { s.transfer_jitter = inf; },
                "infinite transfer jitter");
  expect_reject([inf](Spec& s) { s.dvfs_jitter = inf; },
                "infinite dvfs jitter");
  expect_reject([inf](Spec& s) { s.boost_budget_s = inf; },
                "infinite budget");
  expect_reject([inf](Spec& s) { s.boost_recovery = inf; },
                "infinite recovery");
}

// ---- fingerprint fragment ---------------------------------------------------

/// The fragment appended to an empty string.
std::string fingerprint_fragment(const Spec& spec) {
  std::string out;
  append_fingerprint_fragment(out, spec);
  return out;
}

TEST(FingerprintFragment, DisabledCollapsesToConstant) {
  Spec s = enabled_spec();
  s.enabled = false;
  EXPECT_EQ(fingerprint_fragment(s), "var=0");
  EXPECT_EQ(fingerprint_fragment(Spec{}), "var=0");
  // The fragment is appended after what the buffer already holds.
  std::string out = "seed=1;";
  append_fingerprint_fragment(out, s);
  EXPECT_EQ(out, "seed=1;var=0");
}

TEST(FingerprintFragment, EveryFieldSignificantWhenEnabled) {
  const std::string base = fingerprint_fragment(enabled_spec());
  const auto differs = [&base](auto&& mutate) {
    Spec s = enabled_spec();
    mutate(s);
    return fingerprint_fragment(s) != base;
  };
  EXPECT_TRUE(differs([](Spec& s) { s.drift = 0.03; }));
  EXPECT_TRUE(differs([](Spec& s) { s.drift_cap = 0.2; }));
  EXPECT_TRUE(differs([](Spec& s) { s.transfer_jitter = 0.2; }));
  EXPECT_TRUE(differs([](Spec& s) { s.dvfs_jitter = 0.2; }));
  EXPECT_TRUE(differs([](Spec& s) { s.freq_quantum_mhz = 200; }));
  EXPECT_TRUE(differs([](Spec& s) { s.boost_budget_s = 3.0; }));
  EXPECT_TRUE(differs([](Spec& s) { s.boost_recovery = 0.9; }));
  EXPECT_TRUE(differs([](Spec& s) { s.seed = 7; }));
}

// ---- stream derivation + drift walks ----------------------------------------

TEST(DeriveStreamSeed, MatchesDeriveCellSeedMixing) {
  // Documented contract: identical splitmix64 mixing as bsr::derive_cell_seed
  // so the two derivation families interleave without collisions.
  const std::uint64_t root = 42;
  std::uint64_t z = root + (std::uint64_t{3} + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  EXPECT_EQ(derive_stream_seed(root, 3), z);
  EXPECT_NE(derive_stream_seed(root, 0), derive_stream_seed(root, 1));
  EXPECT_NE(derive_stream_seed(root, 0), derive_stream_seed(root + 1, 0));
}

TEST(DriftWalk, DeterministicAndSeedSensitive) {
  const auto a = drift_walk(1, 40, 0.02, 0.35);
  const auto b = drift_walk(1, 40, 0.02, 0.35);
  const auto c = drift_walk(2, 40, 0.02, 0.35);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DriftWalk, StartsCleanAndActuallyMoves) {
  const auto w = drift_walk(7, 60, 0.02, 0.35);
  ASSERT_EQ(w.size(), 60u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);  // the profiling reference iteration
  double max_dev = 0.0;
  for (const double f : w) max_dev = std::max(max_dev, std::abs(f - 1.0));
  EXPECT_GT(max_dev, 0.01);  // a real walk, not a constant
}

TEST(DriftWalk, RespectsReflectiveCap) {
  // Huge sigma hammers the boundary; every factor must stay in
  // [exp(-cap), exp(cap)].
  const double cap = 0.1;
  const auto w = drift_walk(3, 500, 0.08, cap);
  for (const double f : w) {
    EXPECT_GE(f, std::exp(-cap) - 1e-12);
    EXPECT_LE(f, std::exp(cap) + 1e-12);
  }
}

TEST(DriftWalk, ZeroSigmaIsAllOnes) {
  for (const double f : drift_walk(9, 30, 0.0, 0.35)) {
    EXPECT_DOUBLE_EQ(f, 1.0);
  }
}

// ---- thermal throttle -------------------------------------------------------

TEST(ThermalThrottle, InactiveGrantsEverything) {
  ThermalThrottle t;  // capacity 0 = unlimited
  EXPECT_FALSE(t.active());
  EXPECT_EQ(t.admit(2100, 1350), 2100);
  t.account(2100, 1350, 1e6, 0.0);
  EXPECT_EQ(t.admit(2100, 1350), 2100);
}

TEST(ThermalThrottle, ExhaustedBudgetPinsToBase) {
  ThermalThrottle t(2.0, 0.5);
  const hw::Mhz base = 1350;
  EXPECT_EQ(t.admit(2100, base), 2100);  // budget available
  t.account(2100, base, 2.5, 0.0);       // 2.5 s of boost drains 2.0 s budget
  EXPECT_EQ(t.admit(2100, base), base);  // throttled
  EXPECT_TRUE(t.throttled());
  EXPECT_EQ(t.admit(1200, base), 1200);  // below-base requests pass through
}

TEST(ThermalThrottle, RecoversWithHysteresis) {
  ThermalThrottle t(2.0, 0.5);
  const hw::Mhz base = 1350;
  t.account(2100, base, 2.0, 0.0);  // drain to exactly 0
  EXPECT_EQ(t.admit(2100, base), base);
  // Recovery at 0.5 s/s: 1 s at base regains 0.5 s — still below the 50%
  // hysteresis threshold (1.0 s), so the lane stays throttled.
  t.account(base, base, 1.0, 0.0);
  EXPECT_EQ(t.admit(2100, base), base);
  // Another second (busy at base) plus idle recovery crosses the threshold.
  t.account(base, base, 1.0, 1.0);
  EXPECT_EQ(t.admit(2100, base), 2100);
  EXPECT_FALSE(t.throttled());
}

TEST(ThermalThrottle, OverdraftIsBoundedByOneCapacity) {
  ThermalThrottle t(1.0, 1.0);
  t.account(2000, 1000, 100.0, 0.0);  // marathon boost
  EXPECT_DOUBLE_EQ(t.budget_s(), -1.0);
  // Two seconds of recovery time climbs back from -1.0 to 1.0 (full).
  t.account(1000, 1000, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(t.budget_s(), 1.0);
}

// ---- LaneVariability --------------------------------------------------------

TEST(LaneVariability, DefaultAndDisabledAreInert) {
  const hw::PlatformProfile p = hw::PlatformProfile::paper_default();
  LaneVariability inert;
  EXPECT_FALSE(inert.enabled());
  EXPECT_DOUBLE_EQ(inert.compute_factor(5), 1.0);
  EXPECT_DOUBLE_EQ(inert.transfer_factor(), 1.0);
  EXPECT_EQ(inert.dvfs_latency(SimTime::from_micros(50)),
            SimTime::from_micros(50));
  // Even a wild out-of-domain request passes through untouched: the caller's
  // own clamping stays the single source of truth when variability is off.
  EXPECT_EQ(inert.admit_clock(99999, p.gpu.freq, true), 99999);

  Spec off = enabled_spec();
  off.enabled = false;
  LaneVariability disabled(off, 42, 1, 60, p.gpu.freq.base_mhz);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_DOUBLE_EQ(disabled.compute_factor(10), 1.0);
  EXPECT_DOUBLE_EQ(disabled.transfer_factor(), 1.0);
}

TEST(LaneVariability, LanesGetDecorrelatedStreams) {
  const hw::PlatformProfile p = hw::PlatformProfile::paper_default();
  const Spec s = enabled_spec();
  LaneVariability cpu(s, 42, 0, 60, p.cpu.freq.base_mhz);
  LaneVariability gpu(s, 42, 1, 60, p.gpu.freq.base_mhz);
  bool any_differs = false;
  for (int k = 1; k < 60; ++k) {
    any_differs |= cpu.compute_factor(k) != gpu.compute_factor(k);
  }
  EXPECT_TRUE(any_differs);
}

TEST(LaneVariability, ExplicitSpecSeedOverridesRunSeed) {
  const hw::PlatformProfile p = hw::PlatformProfile::paper_default();
  Spec pinned = enabled_spec();
  pinned.seed = 777;
  LaneVariability a(pinned, /*run_seed=*/1, 1, 60, p.gpu.freq.base_mhz);
  LaneVariability b(pinned, /*run_seed=*/2, 1, 60, p.gpu.freq.base_mhz);
  for (int k = 0; k < 60; ++k) {
    EXPECT_DOUBLE_EQ(a.compute_factor(k), b.compute_factor(k)) << k;
  }
}

TEST(LaneVariability, QuantizesRequestsTowardBaseOnABaseAnchoredGrid) {
  const hw::PlatformProfile p = hw::PlatformProfile::paper_default();
  Spec s;
  s.enabled = true;
  s.freq_quantum_mhz = 400;
  const hw::Mhz base = p.gpu.freq.base_mhz;  // 1300
  LaneVariability v(s, 42, 1, 60, base);
  // Boost request 1990: delta 690 truncates to 400 above base -> 1700.
  EXPECT_EQ(v.admit_clock(1990, p.gpu.freq, true), base + 400);
  // Down-clock request 990: delta -310 truncates to 0 -> base (keeps clock).
  EXPECT_EQ(v.admit_clock(990, p.gpu.freq, true), base);
  // The base clock itself is always on the grid: a lane that never requests
  // a change (Original strategy) must not be nudged off base.
  EXPECT_EQ(v.admit_clock(base, p.gpu.freq, false), base);
}

TEST(LaneVariability, ThrottleClampsLongBoosts) {
  const hw::PlatformProfile p = hw::PlatformProfile::paper_default();
  Spec s;
  s.enabled = true;
  s.boost_budget_s = 1.0;
  s.boost_recovery = 0.5;
  const hw::Mhz base = p.gpu.freq.base_mhz;
  const hw::Mhz boost = p.gpu.freq.max_oc_mhz;
  LaneVariability v(s, 42, 1, 60, base);
  EXPECT_EQ(v.admit_clock(boost, p.gpu.freq, true), boost);
  v.account(boost, 2.0, 0.0);  // long boost exhausts the budget
  EXPECT_EQ(v.admit_clock(boost, p.gpu.freq, true), base);
}

TEST(LaneVariability, JitterStreamsAreDeterministic) {
  const hw::PlatformProfile p = hw::PlatformProfile::paper_default();
  const Spec s = enabled_spec();
  LaneVariability a(s, 42, 1, 60, p.gpu.freq.base_mhz);
  LaneVariability b(s, 42, 1, 60, p.gpu.freq.base_mhz);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.transfer_factor(), b.transfer_factor());
    EXPECT_EQ(a.dvfs_latency(SimTime::from_micros(50)),
              b.dvfs_latency(SimTime::from_micros(50)));
  }
  // Jitter is real: ten draws cannot all equal 1.
  LaneVariability c(s, 42, 1, 60, p.gpu.freq.base_mhz);
  bool moved = false;
  for (int i = 0; i < 10; ++i) moved |= c.transfer_factor() != 1.0;
  EXPECT_TRUE(moved);
}

}  // namespace
}  // namespace bsr::var
