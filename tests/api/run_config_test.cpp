// RunConfig: defaults, validation, and fingerprint semantics.
#include "bsr/run_config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "bsr/registry.hpp"
#include "core/decomposer.hpp"
#include "core/options.hpp"

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

TEST(RunConfig, WorkloadReflectsFields) {
  RunConfig cfg;
  cfg.n = 4096;
  cfg.b = 256;
  cfg.factorization = Factorization::QR;
  cfg.elem_bytes = 4;
  const predict::WorkloadModel wl = cfg.workload();
  EXPECT_EQ(wl.n, 4096);
  EXPECT_EQ(wl.b, 256);
  EXPECT_EQ(wl.fact, Factorization::QR);
  EXPECT_EQ(wl.elem_bytes, 4);
  EXPECT_EQ(wl.num_iterations(), 16);
  // b = 0 runs the tuned block, as every engine does.
  cfg.b = 0;
  EXPECT_EQ(cfg.workload().b, core::tuned_block(4096));
  EXPECT_EQ(cfg.workload().b, cfg.block());
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
  // 3 x 1431655768 is 8 modulo 2^32: the grid check must not multiply in int.
  expect_invalid([](RunConfig& c) {
    c.devices = 8;
    c.cluster = "rack_8x8";
    c.grid_p = 3;
    c.grid_q = 1431655768;
  });
  // Run size: n + b - 1 would overflow here, and ceil(n / b) is far above
  // the iteration bound either way.
  expect_invalid([](RunConfig& c) {
    c.n = std::numeric_limits<std::int64_t>::max();
  });
  expect_invalid([](RunConfig& c) {
    c.n = std::numeric_limits<std::int64_t>::max();
    c.b = std::numeric_limits<std::int64_t>::max() - 1;  // 2 iterations
    c.mode = ExecutionMode::Numeric;
  });
  expect_invalid([](RunConfig& c) {  // 4097 iterations
    c.n = 4097;
    c.b = 1;
  });
  expect_invalid([](RunConfig& c) { c.n = 2097153; });  // auto b = 512
  expect_invalid([](RunConfig& c) {
    c.n = 8193;
    c.mode = ExecutionMode::Numeric;
  });
}

TEST(RunConfig, ValidateAcceptsRunsAtTheSizeBounds) {
  RunConfig cfg;
  cfg.n = 4096;
  cfg.b = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg = RunConfig{};
  cfg.n = 2097152;  // auto b = 512: exactly 4096 iterations
  EXPECT_EQ(cfg.block(), 512);
  EXPECT_NO_THROW(cfg.validate());
  cfg = RunConfig{};
  cfg.n = 8192;
  cfg.mode = ExecutionMode::Numeric;
  EXPECT_NO_THROW(cfg.validate());
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
