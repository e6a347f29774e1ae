// RunConfig: validation, legacy lowering, fingerprint semantics, and
// equivalence of the new facade with the deprecated RunOptions path.
#include "bsr/run_config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "bsr/registry.hpp"
#include "core/decomposer.hpp"

namespace bsr {
namespace {

TEST(RunConfig, DefaultsMatchPaperHeadline) {
  const RunConfig cfg;
  EXPECT_EQ(cfg.factorization, Factorization::LU);
  EXPECT_EQ(cfg.n, 30720);
  EXPECT_EQ(cfg.block(), 512);  // auto-tuned
  EXPECT_EQ(cfg.strategy, "bsr");
  EXPECT_EQ(cfg.abft_policy, "adaptive");
  EXPECT_EQ(cfg.platform, "paper_default");
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RunConfig, BlockAutoTuneClampsToN) {
  RunConfig cfg;
  cfg.n = 48;  // tuned_block would be 64 > n
  EXPECT_EQ(cfg.block(), 48);
  EXPECT_NO_THROW(cfg.validate());
  cfg.b = 32;
  EXPECT_EQ(cfg.block(), 32);
}

TEST(RunConfig, ValidateRejectsOutOfRangeFields) {
  const auto expect_invalid = [](void (*mutate)(RunConfig&)) {
    RunConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  expect_invalid([](RunConfig& c) { c.n = 0; });
  expect_invalid([](RunConfig& c) { c.n = -5; });
  expect_invalid([](RunConfig& c) { c.b = -1; });
  expect_invalid([](RunConfig& c) { c.b = c.n + 1; });        // b > n
  expect_invalid([](RunConfig& c) { c.reclamation_ratio = -0.1; });
  expect_invalid([](RunConfig& c) { c.reclamation_ratio = 1.5; });
  expect_invalid([](RunConfig& c) { c.fc_desired = 0.0; });   // bad fc
  expect_invalid([](RunConfig& c) { c.fc_desired = 1.0; });
  expect_invalid([](RunConfig& c) { c.fc_desired = -3.0; });
  expect_invalid([](RunConfig& c) { c.elem_bytes = 2; });
  expect_invalid([](RunConfig& c) { c.error_rate_multiplier = -1.0; });
  expect_invalid([](RunConfig& c) {
    c.error_rate_multiplier = std::numeric_limits<double>::infinity();
  });
  expect_invalid([](RunConfig& c) { c.strategy = "warp"; });
  expect_invalid([](RunConfig& c) { c.abft_policy = "sometimes"; });
  expect_invalid([](RunConfig& c) { c.platform = "laptop"; });
}

TEST(RunConfig, ValidateMessageNamesTheField) {
  RunConfig cfg;
  cfg.reclamation_ratio = 2.0;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("RunConfig"), std::string::npos) << what;
    EXPECT_NE(what.find("reclamation_ratio"), std::string::npos) << what;
  }
}

TEST(RunConfig, LegacyLoweringRoundTrips) {
  RunConfig cfg;
  cfg.factorization = Factorization::QR;
  cfg.n = 8192;
  cfg.b = 256;
  cfg.strategy = "sr";
  cfg.abft_policy = "single";
  cfg.seed = 7;
  cfg.noise_enabled = false;
  cfg.bsr_allow_overclocking = false;

  const core::RunOptions opts = cfg.options();
  EXPECT_EQ(opts.strategy, StrategyKind::SR);
  EXPECT_EQ(opts.n, 8192);
  EXPECT_EQ(opts.b, 256);
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_FALSE(opts.noise_enabled);
  const core::ExtendedOptions ext = cfg.extended();
  EXPECT_EQ(ext.abft_policy, AbftPolicy::ForceSingle);
  EXPECT_FALSE(ext.bsr_allow_overclocking);

  const RunConfig back = from_legacy(opts, ext);
  EXPECT_EQ(back.strategy, "sr");
  EXPECT_EQ(back.abft_policy, "single");
  EXPECT_EQ(back.fingerprint(), cfg.fingerprint());
}

TEST(RunConfig, NewAndLegacyPathsProduceIdenticalReports) {
  RunConfig cfg;
  cfg.n = 4096;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.25;

  const core::Decomposer dec;
  const core::RunReport via_config = dec.run(cfg);
  const core::RunReport via_legacy = dec.run(cfg.options(), cfg.extended());
  EXPECT_DOUBLE_EQ(via_config.total_energy_j(), via_legacy.total_energy_j());
  EXPECT_DOUBLE_EQ(via_config.seconds(), via_legacy.seconds());
  EXPECT_DOUBLE_EQ(via_config.ed2p(), via_legacy.ed2p());
  ASSERT_EQ(via_config.trace.iterations.size(),
            via_legacy.trace.iterations.size());
}

TEST(RunConfig, FingerprintDistinguishesResultRelevantFields) {
  const RunConfig base;
  RunConfig other = base;
  EXPECT_EQ(base.fingerprint(), other.fingerprint());
  other.reclamation_ratio = 0.1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.strategy = "sr";
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.seed = 43;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  // b = 0 and the explicit tuned value are the same effective config.
  other = base;
  other.b = base.block();
  EXPECT_EQ(base.fingerprint(), other.fingerprint());
  // Case and alias spellings of registry keys fingerprint identically, so
  // the sweep cache treats them as one configuration.
  RunConfig org1 = base;
  org1.strategy = "org";
  RunConfig org2 = base;
  org2.strategy = "Original";
  EXPECT_EQ(org1.fingerprint(), org2.fingerprint());
  org2.platform = "PAPER";
  EXPECT_EQ(org1.fingerprint(), org2.fingerprint());
}

TEST(RunConfig, FingerprintNormalizesBsrKnobsForBuiltinNonBsrStrategies) {
  // Original/R2H/SR ignore the BSR-only knobs, so configs differing only in
  // them are one cached run; BSR itself (and registry-registered strategies,
  // whose factories see the whole config) keep the full fingerprint.
  RunConfig a;
  a.strategy = "original";
  RunConfig b = a;
  b.reclamation_ratio = 0.25;
  b.fc_desired = 0.9;
  b.bsr_allow_overclocking = false;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  RunConfig c;
  c.strategy = "bsr";
  RunConfig d = c;
  d.reclamation_ratio = 0.25;
  EXPECT_NE(c.fingerprint(), d.fingerprint());
}

TEST(RunConfig, FingerprintNormalizesTimingIrrelevantRecovery) {
  RunConfig timing;
  timing.recover_uncorrectable = true;
  RunConfig plain = timing;
  plain.recover_uncorrectable = false;
  // Recovery never triggers in timing-only mode -> one cache entry...
  EXPECT_EQ(timing.fingerprint(), plain.fingerprint());
  // ...but numeric runs genuinely differ.
  timing.mode = plain.mode = ExecutionMode::Numeric;
  EXPECT_NE(timing.fingerprint(), plain.fingerprint());
}

TEST(RunConfig, FreeRunResolvesPlatformFromRegistry) {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  cfg.platform = "test_small";
  const core::RunReport report = run(cfg);
  EXPECT_GT(report.total_energy_j(), 0.0);
  cfg.platform = "nonexistent";
  EXPECT_THROW((void)run(cfg), std::invalid_argument);
}

TEST(RunConfig, DeriveCellSeedIsPerCellAndStable) {
  EXPECT_EQ(derive_cell_seed(42, 0), derive_cell_seed(42, 0));
  EXPECT_NE(derive_cell_seed(42, 0), derive_cell_seed(42, 1));
  EXPECT_NE(derive_cell_seed(42, 0), derive_cell_seed(43, 0));
  EXPECT_NE(derive_cell_seed(42, 0), 42u);  // never the root itself
}

}  // namespace
}  // namespace bsr
