// RunConfig: defaults, validation, and fingerprint semantics.
#include "bsr/run_config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsr/cluster.hpp"
#include "bsr/faults.hpp"
#include "bsr/registry.hpp"
#include "bsr/sweep.hpp"
#include "bsr/variability.hpp"
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

// ---- fingerprint bytes ------------------------------------------------------
// Fingerprints key the sweep cache, the daemon's result table and the
// durable store's file names, so their bytes are a format: a writer that
// spells one number differently orphans every stored record. The corpus
// below covers the benchmark's grid, rack and numeric configurations, every
// variability and fault preset, every cluster layout and collective,
// aliased and upper-case registry keys, extreme seeds and integers, and
// doubles whose %.17g spelling has an exponent, 17 significant digits, a
// sign or no finite value. One FNV-1a digest over all of them was recorded
// with the snprintf / std::to_string writer.

/// Every combination of the axes' points applied to `base`, outermost first.
std::vector<RunConfig> expand(const RunConfig& base,
                              const std::vector<Axis>& axes) {
  std::vector<RunConfig> cells = {base};
  for (const Axis& axis : axes) {
    std::vector<RunConfig> next;
    for (const RunConfig& cell : cells) {
      for (const AxisPoint& point : axis.points) {
        next.push_back(cell);
        point.apply(next.back());
      }
    }
    cells = std::move(next);
  }
  return cells;
}

Axis variability_axis(const std::vector<std::string>& presets) {
  Axis axis{"variability", {}};
  for (const std::string& p : presets) {
    const VariabilityConfig v = make_variability(p);
    axis.points.push_back({p, [v](RunConfig& c) { c.variability = v; }});
  }
  return axis;
}

Axis faults_axis(const std::vector<std::string>& presets) {
  Axis axis{"faults", {}};
  for (const std::string& p : presets) {
    const FaultConfig f = make_faults(p);
    axis.points.push_back({p, [f](RunConfig& c) { c.faults = f; }});
  }
  return axis;
}

Axis key_axis(const std::string& name, std::string RunConfig::*field,
              const std::vector<std::string>& keys) {
  Axis axis{name, {}};
  for (const std::string& k : keys) {
    axis.points.push_back({k, [field, k](RunConfig& c) { c.*field = k; }});
  }
  return axis;
}

std::vector<RunConfig> fingerprint_corpus() {
  std::vector<RunConfig> corpus;
  const auto add = [&corpus](const std::vector<RunConfig>& cells) {
    corpus.insert(corpus.end(), cells.begin(), cells.end());
  };

  // The benchmark's paper grid, each cell with its original baseline.
  for (const std::uint64_t root : {1ull, 2ull}) {
    for (const RunConfig& cell : expand(
             RunConfig{},
             {variability_axis({"off", "drift"}),
              strategy_axis({"original", "r2h", "sr", "bsr"}),
              factorization_axis({Factorization::Cholesky, Factorization::LU,
                                  Factorization::QR}),
              size_axis({5120, 10240, 15360, 20480, 25600, 30720}),
              ratio_axis({0.0, 0.25, 0.5, 1.0}), trial_axis(2, root)})) {
      corpus.push_back(cell);
      RunConfig baseline = cell;
      baseline.strategy = "original";
      baseline.reclamation_ratio = RunConfig{}.reclamation_ratio;
      corpus.push_back(baseline);
    }
  }

  // The benchmark's rack campaign: each cell's faults-off baseline and its
  // seeded trials.
  RunConfig rack;
  rack.n = 16384;
  rack.cluster = "rack_8x8";
  rack.seed = derive_cell_seed(1, 1);
  rack.variability = make_variability("hostile");
  rack.reclamation_ratio = 0.25;
  rack.faults = make_faults("poisson");
  rack.faults.rate_multiplier = 225.0;
  for (RunConfig cell :
       expand(rack, {devices_axis({8, 16, 32, 64}),
                     strategy_axis({"original", "sr", "bsr"}),
                     key_axis("collective", &RunConfig::collective,
                              {"ring", "tree"})})) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      cell.faults.seed = derive_cell_seed(cell.seed, k);
      corpus.push_back(cell);
    }
    cell.faults = FaultConfig{};
    corpus.push_back(cell);
  }

  // The benchmark's numeric solves.
  std::uint64_t index = 0;
  for (const Factorization f :
       {Factorization::LU, Factorization::QR, Factorization::Cholesky}) {
    for (const bool protect : {true, false}) {
      RunConfig c;
      c.factorization = f;
      c.n = 512;
      c.b = 32;
      c.reclamation_ratio = 0.25;
      c.fc_desired = 0.999;
      c.platform = "numeric_demo";
      c.mode = ExecutionMode::Numeric;
      c.abft_policy = protect ? "adaptive" : "none";
      c.error_rate_multiplier = protect ? 150.0 : 0.0;
      c.recover_uncorrectable = protect;
      c.seed = derive_cell_seed(1, index++);
      corpus.push_back(c);
    }
  }

  // Every variability and fault preset, alone and together, single-node
  // and on a rack.
  RunConfig small;
  small.n = 4096;
  small.b = 256;
  add(expand(small, {variability_axis(variability_presets().keys()),
                     faults_axis(fault_presets().keys()),
                     devices_axis({0, 8}),
                     key_axis("cluster", &RunConfig::cluster,
                              {"rack_4x8"})}));

  // Every cluster profile and collective, auto and explicit grids, with and
  // without rebalancing.
  for (const std::string& profile : cluster_profiles().keys()) {
    const int capacity = cluster_profile_info(profile).capacity;
    for (const int devices : {1, 2, 6, 8, 12, 32, 64}) {
      if (devices > capacity) continue;
      for (const std::string& coll : collectives().keys()) {
        for (const bool rebalance : {false, true}) {
          RunConfig c = small;
          c.cluster = profile;
          c.devices = devices;
          c.collective = coll;
          c.rebalance = rebalance;
          corpus.push_back(c);
          if (devices % 2 == 0) {
            c.grid_p = 2;
            c.grid_q = devices / 2;
            corpus.push_back(c);
          }
        }
      }
    }
  }

  // Registry keys in every spelling: canonical, alias and upper case.
  add(expand(small,
             {key_axis("strategy", &RunConfig::strategy,
                       {"original", "org", "ORG", "Original", "r2h", "R2H",
                        "sr", "SR", "bsr", "BSR", "Bsr"}),
              key_axis("abft", &RunConfig::abft_policy,
                       {"adaptive", "ADAPTIVE", "none", "force_none",
                        "Force_Single", "full", "FULL"}),
              key_axis("platform", &RunConfig::platform,
                       {"paper_default", "PAPER", "default", "test_small",
                        "Numeric"})}));
  add(expand(small, {devices_axis({4}),
                     key_axis("cluster", &RunConfig::cluster,
                              {"pcie", "PCIE", "nvlink", "NVLink_Pairs",
                               "rack", "RACK_4X8"}),
                     key_axis("collective", &RunConfig::collective,
                              {"auto", "AUTO", "relay", "Ring", "binomial",
                               "TREE"})}));

  // Every spelled double and integer field at values whose spelling is
  // easy to get wrong, on a BSR config so that r, fc and the BSR knobs are
  // all fingerprinted, with both blocks enabled.
  const double kDoubles[] = {
      1.0 / 3.0, 0.1, 1e-300, 5e-324, 1e300, 0.0, -0.0, 0.5, 2.0 / 3.0,
      1.0, 100000.0, 1e16, 1e17, 1e21, 1e-5, 123456789.125,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  RunConfig spelled = small;
  spelled.variability = make_variability("hostile");
  spelled.faults = make_faults("hostile");
  const std::vector<std::function<void(RunConfig&, double)>> doubles = {
      [](RunConfig& c, double v) { c.reclamation_ratio = v; },
      [](RunConfig& c, double v) { c.fc_desired = v; },
      [](RunConfig& c, double v) { c.error_rate_multiplier = v; },
      [](RunConfig& c, double v) { c.variability.drift = v; },
      [](RunConfig& c, double v) { c.variability.drift_cap = v; },
      [](RunConfig& c, double v) { c.variability.transfer_jitter = v; },
      [](RunConfig& c, double v) { c.variability.dvfs_jitter = v; },
      [](RunConfig& c, double v) { c.variability.boost_budget_s = v; },
      [](RunConfig& c, double v) { c.variability.boost_recovery = v; },
      [](RunConfig& c, double v) { c.faults.rate_multiplier = v; },
      [](RunConfig& c, double v) { c.faults.background_rate_per_s = v; },
      [](RunConfig& c, double v) { c.faults.burst_mean = v; },
      [](RunConfig& c, double v) { c.faults.hazard_sigma = v; },
      [](RunConfig& c, double v) { c.faults.correction_s = v; }};
  for (const auto& set : doubles) {
    for (const double v : kDoubles) {
      RunConfig c = spelled;
      set(c, v);
      corpus.push_back(c);
    }
  }
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{4294967296},
        std::uint64_t{9223372036854775807}, std::uint64_t{1} << 63,
        kU64Max - 1, kU64Max}) {
    RunConfig c = spelled;
    c.seed = seed;
    corpus.push_back(c);
    c.variability.seed = seed;
    corpus.push_back(c);
    c.faults.seed = seed;
    corpus.push_back(c);
  }
  constexpr int kIntMin = std::numeric_limits<int>::min();
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (const int v : {kIntMin, -1, 0, 7, 100, kIntMax}) {
    RunConfig c = spelled;
    c.elem_bytes = v;
    c.variability.freq_quantum_mhz = v;
    c.faults.fixed_d0 = v;
    c.faults.fixed_d1 = -v / 2;
    c.faults.fixed_d2 = v / 3;
    c.bsr_use_optimized_guardband = v % 2 == 0;
    c.bsr_allow_overclocking = v > 0;
    c.bsr_use_enhanced_predictor = v < 0;
    c.noise_enabled = v == 0;
    c.faults.process = v > 0 ? faultcamp::ProcessKind::Fixed
                             : faultcamp::ProcessKind::Poisson;
    c.faults.rollback = v % 3 == 0;
    corpus.push_back(c);
  }
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{48},
                               std::int64_t{1} << 40,
                               std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<std::int64_t>::min()}) {
    for (const std::int64_t b : {std::int64_t{1}, std::int64_t{512},
                                 std::numeric_limits<std::int64_t>::max()}) {
      RunConfig c = spelled;
      c.n = n;
      c.b = b;
      corpus.push_back(c);
    }
  }
  return corpus;
}

TEST(RunConfigFingerprint, BytesMatchTheParent) {
  const std::vector<RunConfig> corpus = fingerprint_corpus();
  std::uint64_t digest = 14695981039346656037ull;
  std::size_t bytes = 0;
  for (const RunConfig& cfg : corpus) {
    const std::string fp = cfg.fingerprint() + "\n";
    bytes += fp.size();
    for (const unsigned char c : fp) {
      digest ^= c;
      digest *= 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  // Recorded on the snprintf / std::to_string writer.
  EXPECT_EQ(corpus.size(), 5969u);
  EXPECT_EQ(bytes, 1762602u);
  EXPECT_EQ(digest, 0xb0116dfbc4560b72ull) << hex;
}

}  // namespace
}  // namespace bsr
