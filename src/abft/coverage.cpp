#include "abft/coverage.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/arena.hpp"

namespace bsr::abft {

namespace {

// Both closed forms are Poisson-weighted sums of non-negative terms, added in
// a fixed order (k ascending; in fc_full, j ascending within each k). The
// adaptive-checksum ladder evaluates them at each candidate clock whose
// coverage_bound does not already miss the target, yet on the paper's rates
// nearly all of their terms are too small to change the result. Each loop
// therefore ends as soon as no remaining term can change the running sum,
// which leaves every result bit-identical to the full sum:
//
//   1. The running sum s never decreases. A term x with 0 <= x <= s 2^-54 is
//      below half an ulp of s, so round-to-nearest gives fl(s + x) = s, for
//      this addition and every later one.
//   2. Past index i >= 2 mean, each Poisson pmf is at most half the one
//      before it (the ratio is mean / (i + 1) < 1/2). The computed pmf's
//      relative error (below 1e-9 at the indices the paper's rates reach) is
//      far inside the margin below.
//   3. Each fc_single term is pk times a product of factors in [0, 1]. Each
//      fc_full term is (pk pj[j]) dbf[k + j] with dbf in [0, 1], and every
//      pj <= 1 whenever m1 >= 0.
//
// So a loop may stop at index i >= 2 mean once its pmf (along j: pk pj[j])
// is at most s 2^-56, a factor 4 inside (1). The k loop of fc_full relies on
// pj <= 1 and stops only when m1 >= 0. The exits need s >= 2^-900, clear of
// subnormals, and a NaN sum or term fails every comparison, so never exits.
//
// The tables the sums read (the m0 row, pj, dbf) are filled on first use, in
// index order, by the expressions a full fill uses, and std::log(i) for small
// integer i comes from a table of the very values std::log returns (same
// libm, same input, same bits). One ABFT-OC step shares its m0 row and
// e^{-l2 T} between the two sums (StepCoverage).

/// Upper summation bound for a Poisson tail: mean + 10 sqrt(mean) + 16 keeps
/// the truncation error far below the 1e-6 coverage resolution we report.
/// The bound is clamped to `blocks` (and to half the int range, so k + j
/// cannot overflow) before it is narrowed, so no finite mean overflows it;
/// callers pass finite means only.
int poisson_cutoff(double mean, std::int64_t blocks) {
  constexpr double kMaxBound = std::numeric_limits<int>::max() / 2;
  const double cut = mean + 10.0 * std::sqrt(std::max(mean, 1.0)) + 16.0;
  return static_cast<int>(
      std::min({cut, static_cast<double>(blocks), kMaxBound}));
}

constexpr int kLogTableSize = 4096;

/// table[i] == std::log(static_cast<double>(i)) for i in [2, kLogTableSize).
const std::array<double, kLogTableSize>& log_int_table() {
  static const std::array<double, kLogTableSize> table = [] {
    std::array<double, kLogTableSize> t{};
    for (int i = 2; i < kLogTableSize; ++i) {
      t[static_cast<std::size_t>(i)] = std::log(static_cast<double>(i));
    }
    return t;
  }();
  return table;
}

/// The log of a Poisson mean as poisson_pmf uses it.
double log_mean(double mean) { return std::log(std::max(mean, 1e-300)); }

double poisson_pmf(int k, double mean, double log_m) {
  // exp(-m) m^k / k! computed in log space for robustness. The log-factorial
  // subtractions stay sequential (i ascending) so the rounding sequence
  // matches the reference exactly.
  const std::array<double, kLogTableSize>& lt = log_int_table();
  double log_p = -mean + k * log_m;
  for (int i = 2; i <= k; ++i) {
    log_p -= i < kLogTableSize ? lt[static_cast<std::size_t>(i)]
                               : std::log(static_cast<double>(i));
  }
  return std::exp(log_p);
}

/// True when no term from Poisson index i on can change `sum`, given that
/// `bound` bounds the term at i (see the argument above).
bool absorbed(int i, double mean, double bound, double sum) {
  return i >= 2.0 * mean && sum >= 0x1p-900 && bound <= sum * 0x1p-56;
}

}  // namespace

StepCoverage::StepCoverage(const hw::ErrorRates& rates, double t_seconds,
                           std::int64_t blocks)
    : scope_(Arena::scratch()),
      rates_(rates),
      t_seconds_(t_seconds),
      blocks_(blocks),
      m0_(rates.d0 * t_seconds) {
  if (rates.fault_free() || !std::isfinite(m0_)) return;
  log_m0_ = log_mean(m0_);
  kmax_ = poisson_cutoff(m0_, blocks);
  row_ = scope_.alloc<double>(static_cast<std::size_t>(std::max(kmax_, 0)) +
                              1);
  e2_ = std::exp(-rates.d2 * t_seconds);
}

double StepCoverage::pk(int k) {
  if (k == row_len_) row_[row_len_++] = poisson_pmf(k, m0_, log_m0_);
  return row_[k];
}

double StepCoverage::single() {
  if (rates_.fault_free()) return 1.0;
  if (!std::isfinite(m0_)) return 0.0;
  const double s = static_cast<double>(blocks_);
  double sum = 0.0;
  // Incremental distinct-block factor: after iteration k, `prod` equals
  // prod_{i=0}^{k} (S - i) / S — the reference function's value for count k.
  double prod = 1.0;
  bool zero = false;
  for (int k = 0; k <= kmax_; ++k) {
    const double p = pk(k);
    if (absorbed(k, m0_, p, sum)) break;
    const double term = static_cast<double>(blocks_ - k) / s;
    if (!zero && term <= 0.0) zero = true;
    if (!zero) prod *= term;
    sum += p * (zero ? 0.0 : prod);
  }
  return sum * std::exp(-rates_.d1 * t_seconds_) * e2_;
}

double StepCoverage::full() {
  if (rates_.fault_free()) return 1.0;
  const double m1 = rates_.d1 * t_seconds_;
  if (!std::isfinite(m0_) || !std::isfinite(m1)) return 0.0;
  const double log_m1 = log_mean(m1);
  const double s = static_cast<double>(blocks_);
  const int jmax = poisson_cutoff(m1, blocks_);
  const int cmax = static_cast<int>(
      std::min<std::int64_t>(static_cast<std::int64_t>(kmax_) + jmax, blocks_));

  ArenaScope scope(Arena::scratch());
  // pj[j] = poisson_pmf(j, m1), and the distinct-block factor's prefix
  // product dbf[c] = dbf[c-1] * (S-c)/S for every count the double loop can
  // reach (k + j <= min(kmax + jmax, blocks)); both filled on first use. Once
  // a factor (S-c)/S reaches 0 the product is a sticky zero, NOT a multiply,
  // which could produce -0.0. A negative bound (a mean below -26, or negative
  // blocks) leaves its loop empty and its table one entry long.
  double* pj =
      scope.alloc<double>(static_cast<std::size_t>(std::max(jmax, 0)) + 1);
  double* dbf =
      scope.alloc<double>(static_cast<std::size_t>(std::max(cmax, 0)) + 1);
  int pj_len = 0;
  int dbf_len = 0;
  double prod = 1.0;
  bool zero = false;

  double sum = 0.0;
  for (int k = 0; k <= kmax_; ++k) {
    const double p = pk(k);
    if (m1 >= 0.0 && absorbed(k, m0_, p, sum)) break;
    const int jlim = static_cast<int>(
        std::min<std::int64_t>(jmax, blocks_ - k));
    for (int j = 0; j <= jlim; ++j) {
      if (j == pj_len) pj[pj_len++] = poisson_pmf(j, m1, log_m1);
      const double pkj = p * pj[j];
      if (absorbed(j, m1, pkj, sum)) break;
      for (; dbf_len <= k + j; ++dbf_len) {
        const double term = static_cast<double>(blocks_ - dbf_len) / s;
        if (!zero && term <= 0.0) zero = true;
        if (!zero) prod *= term;
        dbf[dbf_len] = zero ? 0.0 : prod;
      }
      sum += pkj * dbf[k + j];
    }
  }
  return sum * e2_;
}

double fc_single(const hw::ErrorRates& rates, double t_seconds,
                 std::int64_t blocks) {
  return StepCoverage(rates, t_seconds, blocks).single();
}

double fc_full(const hw::ErrorRates& rates, double t_seconds,
               std::int64_t blocks) {
  return StepCoverage(rates, t_seconds, blocks).full();
}

CoverageBound coverage_bound(const hw::ErrorRates& rates, double t_seconds,
                             std::int64_t blocks) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double m0 = rates.d0 * t_seconds;
  const double m1 = rates.d1 * t_seconds;
  const double m2 = rates.d2 * t_seconds;
  const double m = m0 + m1;
  // The comparisons are false for NaN, and m <= kBoundMaxMean keeps m0 and
  // m1 finite.
  if (!(m0 >= 0.0 && m1 >= 0.0 && m2 >= 0.0 && m2 < kInf &&
        m <= kBoundMaxMean && blocks >= 1)) {
    return {kInf, kInf};
  }
  const double s = static_cast<double>(blocks);
  return {(1.0 - m0 / ((1.0 + m0) * s)) / (1.0 + m1),
          1.0 - m / ((1.0 + m) * s)};
}

const char* coverage_label_static(double fc, bool fault_free) {
  if (fault_free) return "Fault-free";
  if (fc > kFullCoverageThreshold) return "Full Coverage";
  return nullptr;  // caller formats the percentage
}

}  // namespace bsr::abft
