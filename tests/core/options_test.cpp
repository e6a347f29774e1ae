#include "core/options.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bsr::core {
namespace {

TEST(Options, FactorizationFromString) {
  EXPECT_EQ(factorization_from_string("lu"), predict::Factorization::LU);
  EXPECT_EQ(factorization_from_string("Cholesky"),
            predict::Factorization::Cholesky);
  EXPECT_EQ(factorization_from_string("cho"), predict::Factorization::Cholesky);
  EXPECT_EQ(factorization_from_string("QR"), predict::Factorization::QR);
  EXPECT_THROW(factorization_from_string("svd"), std::invalid_argument);
}

TEST(Options, TunedBlockMatchesPaperAtFullScale) {
  EXPECT_EQ(tuned_block(30720), 512);
  EXPECT_EQ(tuned_block(20480), 320);
  EXPECT_EQ(tuned_block(5120), 64);
  EXPECT_EQ(tuned_block(512), 64);    // floor
  EXPECT_EQ(tuned_block(100000), 512);  // ceiling
}

TEST(Options, ToStringRoundTrip) {
  EXPECT_STREQ(to_string(StrategyKind::BSR), "BSR");
  EXPECT_STREQ(to_string(StrategyKind::R2H), "R2H");
  EXPECT_STREQ(to_string(ExecutionMode::Numeric), "Numeric");
  EXPECT_STREQ(to_string(ExecutionMode::TimingOnly), "TimingOnly");
}

}  // namespace
}  // namespace bsr::core
