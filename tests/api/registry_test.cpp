// Registry coverage (ISSUE 2 satellite): built-in round-trips, duplicate
// rejection, helpful lookup-miss diagnostics, and end-to-end extension via a
// runtime-registered strategy.
#include "bsr/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "bsr/sweep.hpp"
#include "core/decomposer.hpp"
#include "energy/baselines.hpp"

namespace bsr {
namespace {

TEST(Registry, BuiltInStrategiesRoundTrip) {
  // Containment, not exact size: sibling tests legitimately register extra
  // strategies into the process-global registry, and test order is not
  // guaranteed (--gtest_shuffle).
  for (const char* name : {"original", "r2h", "sr", "bsr"}) {
    const std::string key = name;
    ASSERT_TRUE(strategies().contains(key)) << key;
    // Every built-in carries a StrategyKind whose printed name (the
    // spelling reports echo) lowers back to the canonical registry key.
    const StrategyEntry& entry = strategies().get(key);
    ASSERT_TRUE(entry.kind.has_value()) << key;
    std::string printed = core::to_string(*entry.kind);
    std::transform(printed.begin(), printed.end(), printed.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    EXPECT_EQ(printed, key);
    // The factory builds a real strategy object.
    RunConfig cfg;
    cfg.strategy = key;
    EXPECT_NE(entry.make(cfg), nullptr);
  }
  // Case-insensitivity and aliases keep working through the registry.
  EXPECT_EQ(strategies().get("BSR").kind, StrategyKind::BSR);
  EXPECT_EQ(strategies().get("org").kind, StrategyKind::Original);
}

TEST(Registry, BuiltInPlatformsRoundTrip) {
  for (const char* name : {"paper_default", "test_small", "numeric_demo"}) {
    ASSERT_TRUE(platforms().contains(name)) << name;
    const hw::PlatformProfile p = make_platform(name);
    EXPECT_FALSE(p.cpu.name.empty()) << name;
    EXPECT_FALSE(p.gpu.name.empty()) << name;
  }
  EXPECT_TRUE(platforms().contains("paper"));        // alias
  EXPECT_TRUE(platforms().contains("PAPER_DEFAULT"));  // case-insensitive
}

TEST(Registry, BuiltInAbftPoliciesRoundTrip) {
  EXPECT_EQ(abft_policies().get("adaptive"), core::AbftPolicy::Adaptive);
  EXPECT_EQ(abft_policies().get("none"), core::AbftPolicy::ForceNone);
  EXPECT_EQ(abft_policies().get("force_single"), core::AbftPolicy::ForceSingle);
  EXPECT_EQ(abft_policies().get("Full"), core::AbftPolicy::ForceFull);
}

TEST(Registry, DuplicateRegistrationRejected) {
  Registry<int> reg("thing");
  reg.add("a", 1);
  EXPECT_THROW(reg.add("a", 2), std::invalid_argument);
  EXPECT_THROW(reg.add("A", 2), std::invalid_argument);  // case-insensitive
  reg.alias("b", "a");
  EXPECT_THROW(reg.add("b", 3), std::invalid_argument);
  EXPECT_THROW(reg.alias("b", "a"), std::invalid_argument);
  EXPECT_THROW(reg.alias("c", "missing"), std::invalid_argument);
  EXPECT_EQ(reg.get("b"), 1);  // alias resolves to the canonical entry
  EXPECT_EQ(reg.keys(), std::vector<std::string>{"a"});  // aliases not listed
}

TEST(Registry, LookupMissListsKnownKeys) {
  try {
    (void)strategies().get("warp");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("strategy"), std::string::npos) << what;
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
    for (const char* key : {"bsr", "original", "r2h", "sr"}) {
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
}

TEST(Registry, RuntimeRegisteredStrategyRunsEverywhere) {
  // A scenario plugs in without touching core/: register a strategy that
  // reuses the Original policy under a new name and drive it through the
  // whole RunConfig -> Decomposer -> Sweep stack.
  if (!strategies().contains("registry_test_original_twin")) {
    strategies().add(
        "registry_test_original_twin",
        {std::nullopt,
         [](const RunConfig&) -> std::unique_ptr<energy::Strategy> {
           return std::make_unique<energy::OriginalStrategy>();
         }});
  }

  RunConfig cfg;
  cfg.n = 4096;
  cfg.strategy = "registry_test_original_twin";
  cfg.validate();  // registry-backed validation accepts the new key
  const core::RunReport twin = run(cfg);

  RunConfig orig = cfg;
  orig.strategy = "original";
  const core::RunReport original = run(orig);
  EXPECT_DOUBLE_EQ(twin.total_energy_j(), original.total_energy_j());
  EXPECT_DOUBLE_EQ(twin.seconds(), original.seconds());
  // The report carries the real registry name, not a BSR placeholder.
  EXPECT_EQ(twin.strategy_name, "registry_test_original_twin");
  EXPECT_NE(core::summarize(twin).find("registry_test_original_twin"),
            std::string::npos);

  // Registry-only strategies carry no StrategyKind, so the report's
  // "options" echo reads BSR for them and strategy_name is authoritative.
  EXPECT_FALSE(
      strategies().get("registry_test_original_twin").kind.has_value());
  EXPECT_STREQ(core::strategy_kind_name(twin.config), "BSR");

  // And the Sweep engine treats it like any built-in.
  const SweepResult grid =
      Sweep(cfg)
          .over(strategy_axis({"registry_test_original_twin", "bsr"}))
          .baseline("original")
          .run();
  ASSERT_EQ(grid.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(
      grid.at({{"strategy", "registry_test_original_twin"}}).energy_saving(),
      0.0);
}

}  // namespace
}  // namespace bsr
