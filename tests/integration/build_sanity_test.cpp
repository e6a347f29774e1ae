// Build smoke test: the README quickstart path — a Decomposer with the
// paper-default platform run under the paper-default RunConfig — must produce a
// finite, positive-energy report for all three factorizations. This is the
// first test a fresh checkout should pass; if it fails, the build or the
// default configuration is broken, not the numerics.
#include <cmath>

#include <gtest/gtest.h>

#include "core/decomposer.hpp"

namespace {

using bsr::RunConfig;
using bsr::core::Decomposer;
using bsr::core::RunReport;
using bsr::predict::Factorization;

class BuildSanity : public ::testing::TestWithParam<Factorization> {};

TEST_P(BuildSanity, PaperDefaultRunReportsFiniteEnergy) {
  const Decomposer decomposer;  // paper-default platform

  RunConfig cfg;  // paper defaults: n=30720, tuned b=512, BSR, timing-only
  cfg.factorization = GetParam();

  const RunReport report = decomposer.run(cfg);

  EXPECT_TRUE(std::isfinite(report.total_energy_j()));
  EXPECT_GT(report.total_energy_j(), 0.0);
  EXPECT_TRUE(std::isfinite(report.seconds()));
  EXPECT_GT(report.seconds(), 0.0);
  EXPECT_TRUE(std::isfinite(report.ed2p()));
  EXPECT_GT(report.gflops(), 0.0);
  EXPECT_FALSE(report.trace.iterations.empty());
}

INSTANTIATE_TEST_SUITE_P(AllFactorizations, BuildSanity,
                         ::testing::Values(Factorization::Cholesky,
                                           Factorization::LU,
                                           Factorization::QR),
                         [](const auto& info) {
                           switch (info.param) {
                             case Factorization::Cholesky: return "Cholesky";
                             case Factorization::LU: return "LU";
                             case Factorization::QR: return "QR";
                           }
                           return "Unknown";
                         });

}  // namespace
