#include <gtest/gtest.h>

#include "core/decomposer.hpp"
#include "obs/trace.hpp"

namespace bsr::core {
namespace {

RunConfig timing_cfg(const std::string& strategy, double r = 0.0) {
  RunConfig cfg;
  cfg.n = 30720;
  cfg.b = 512;
  cfg.strategy = strategy;
  cfg.reclamation_ratio = r;
  cfg.mode = ExecutionMode::TimingOnly;
  return cfg;
}

/// `cfg` under the bsr::abft_policies() key `policy`.
RunConfig with_abft(RunConfig cfg, const char* policy) {
  cfg.abft_policy = policy;
  return cfg;
}

TEST(DecomposerTiming, RunsAllStrategies) {
  const Decomposer dec;
  for (const char* s : {"original", "r2h", "sr", "bsr"}) {
    const RunReport r = dec.run(timing_cfg(s));
    EXPECT_EQ(r.trace.iterations.size(), 60u) << s;
    EXPECT_GT(r.total_energy_j(), 0.0);
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_FALSE(r.numeric_executed);
  }
}

TEST(DecomposerTiming, EnergyOrderingMatchesPaper) {
  // Fig. 12(a): BSR > SR > R2H > 0 savings vs Original.
  const Decomposer dec;
  const RunReport org = dec.run(timing_cfg("original"));
  const RunReport r2h = dec.run(timing_cfg("r2h"));
  const RunReport sr = dec.run(timing_cfg("sr"));
  const RunReport bsr = dec.run(timing_cfg("bsr"));
  EXPECT_GT(r2h.energy_saving_vs(org), 0.03);
  EXPECT_GT(sr.energy_saving_vs(org), r2h.energy_saving_vs(org));
  EXPECT_GT(bsr.energy_saving_vs(org), sr.energy_saving_vs(org));
}

TEST(DecomposerTiming, DeterministicAcrossRuns) {
  const Decomposer dec;
  const RunReport a = dec.run(timing_cfg("bsr", 0.15));
  const RunReport b = dec.run(timing_cfg("bsr", 0.15));
  EXPECT_EQ(a.trace.total_time, b.trace.total_time);
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
}

TEST(DecomposerTiming, SeedChangesNoiseButNotOrdering) {
  const Decomposer dec;
  const RunConfig a = timing_cfg("original");
  RunConfig b = a;
  b.seed = 777;
  const RunReport ra = dec.run(a);
  const RunReport rb = dec.run(b);
  EXPECT_NE(ra.trace.total_time, rb.trace.total_time);
  EXPECT_NEAR(ra.seconds() / rb.seconds(), 1.0, 0.05);
}

TEST(DecomposerTiming, AllFactorizationsRun) {
  const Decomposer dec;
  for (auto f : {predict::Factorization::Cholesky, predict::Factorization::LU,
                 predict::Factorization::QR}) {
    RunConfig cfg = timing_cfg("bsr");
    cfg.factorization = f;
    const RunReport r = dec.run(cfg);
    EXPECT_GT(r.gflops(), 0.0) << predict::to_string(f);
  }
}

TEST(DecomposerTiming, RejectsBadGeometry) {
  const Decomposer dec;
  RunConfig cfg = timing_cfg("original");
  // RunConfig reads b = 0 as "auto-tune", so a negative block is the
  // geometry no run can have.
  cfg.b = -1;
  EXPECT_THROW((void)dec.run(cfg), std::invalid_argument);
  cfg.b = 4096;
  cfg.n = 1024;
  EXPECT_THROW((void)dec.run(cfg), std::invalid_argument);
}

TEST(DecomposerTiming, ForcedAbftPoliciesChangeCostOrdering) {
  const Decomposer dec;
  const RunConfig cfg = timing_cfg("bsr", 0.25);
  const RunReport none = dec.run(with_abft(cfg, "none"));
  const RunReport single = dec.run(with_abft(cfg, "single"));
  const RunReport full = dec.run(with_abft(cfg, "full"));
  const RunReport adaptive = dec.run(with_abft(cfg, "adaptive"));
  // Fig. 9 overhead ordering: none < adaptive < single(always-on) < full.
  // Checksum work can hide inside GPU-side slack, so compare the energy cost
  // (always charged) and keep time as a weak-order check.
  EXPECT_LT(none.total_energy_j(), adaptive.total_energy_j());
  EXPECT_LT(adaptive.total_energy_j(), single.total_energy_j());
  EXPECT_LT(single.total_energy_j(), full.total_energy_j());
  EXPECT_LE(none.seconds(), adaptive.seconds());
  EXPECT_LE(adaptive.seconds(), full.seconds());
}

TEST(DecomposerTiming, AdaptiveProtectsOnlyLateIterationsAtModestR) {
  const Decomposer dec;
  const RunReport r = dec.run(timing_cfg("bsr", 0.25));
  EXPECT_GT(r.abft.iterations_unprotected, 30);
  EXPECT_GT(r.abft.iterations_protected_single + r.abft.iterations_protected_full,
            0);
  // Protection must kick in during the late (short-slack) iterations.
  bool early_protected = false;
  for (int k = 0; k < 20; ++k) {
    if (r.trace.iterations[k].abft_mode != abft::ChecksumMode::None) {
      early_protected = true;
    }
  }
  EXPECT_FALSE(early_protected);
}

TEST(DecomposerTiming, SummaryMentionsStrategyAndNumbers) {
  const Decomposer dec;
  const RunReport r = dec.run(timing_cfg("sr"));
  const std::string s = summarize(r);
  EXPECT_NE(s.find("SR"), std::string::npos);
  EXPECT_NE(s.find("LU"), std::string::npos);
  EXPECT_NE(s.find("J"), std::string::npos);
}

TEST(DecomposerTiming, ReportCarriesTheConfigAsRun) {
  const Decomposer dec;
  obs::TraceRecorder recorder;
  RunConfig cfg = timing_cfg("sr", 0.25);
  cfg.n = 4096;
  cfg.b = 0;  // auto-tuned
  cfg.abft_policy = "single";
  cfg.seed = 99;
  cfg.trace = &recorder;
  const RunReport r = dec.run(cfg);
  ASSERT_FALSE(recorder.empty());
  // The block the run used, and no pointer to the caller's recorder.
  EXPECT_EQ(r.config.b, cfg.block());
  EXPECT_EQ(r.config.workload().num_iterations(),
            static_cast<int>(r.trace.iterations.size()));
  EXPECT_EQ(r.config.trace, nullptr);
  // Everything else is the config as given.
  RunConfig resolved = cfg;
  resolved.b = cfg.block();
  EXPECT_EQ(r.config.fingerprint(), resolved.fingerprint());
  EXPECT_EQ(r.config.strategy, "sr");
  EXPECT_EQ(r.config.abft_policy, "single");
  EXPECT_EQ(r.config.seed, 99u);
  // Single-node built-ins leave strategy_name empty.
  EXPECT_TRUE(r.strategy_name.empty());
}

TEST(DecomposerTiming, ReportEchoesTheLegacyStrategySpelling) {
  const Decomposer dec;
  const struct {
    const char* key;
    const char* spelling;
  } cases[] = {{"original", "Original"}, {"org", "Original"},
               {"r2h", "R2H"},           {"sr", "SR"},
               {"bsr", "BSR"},           {"BSR", "BSR"}};
  for (const auto& c : cases) {
    RunConfig cfg = timing_cfg(c.key);
    cfg.n = 2048;
    const RunReport r = dec.run(cfg);
    EXPECT_STREQ(strategy_kind_name(r.config), c.spelling) << c.key;
    EXPECT_EQ(summarize(r).rfind(std::string(c.spelling) + " LU n=2048 b=512:",
                                 0),
              0u)
        << summarize(r);
  }
}

TEST(DecomposerTiming, Ed2pReductionPositiveForBsr) {
  const Decomposer dec;
  const RunReport org = dec.run(timing_cfg("original"));
  const RunReport bsr = dec.run(timing_cfg("bsr"));
  EXPECT_GT(bsr.ed2p_reduction_vs(org), 0.0);
}

}  // namespace
}  // namespace bsr::core
