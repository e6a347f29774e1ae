// Fault-coverage estimation — paper §3.1.2 closed forms.
//
// Errors of each propagation degree arrive as independent Poisson processes
// with rates lambda(f, type). Per-block checksums tolerate at most one strike
// per block per detection interval (one decomposition iteration), so coverage
// is the probability that every strike lands in a distinct block and that no
// error class beyond the scheme's strength occurs:
//
//   FC_single(f,T) = [ sum_k P(k; l0 T) prod_{i=0..k} (S-i)/S ] e^{-l1 T} e^{-l2 T}
//   FC_full(f,T)   = [ sum_{k,j} P(k; l0 T) P(j; l1 T) prod_{i=0..k+j} (S-i)/S ] e^{-l2 T}
//
// with S = (n/b)^2 blocks. The paper calls FC > 99.9999% "Full Coverage".
//
// Each summed Poisson mean (l0 T, and l1 T in FC_full) bounds its index at
// mean + 10 sqrt(mean) + 16, and at S. A NaN or infinite summed mean returns
// 0 (no coverage). A finite mean far beyond S (more expected strikes than
// protected blocks) returns 0 or nearly so, after up to S^2 terms.
#pragma once

#include <cstdint>

#include "common/arena.hpp"
#include "hw/error_model.hpp"

namespace bsr::abft {

inline constexpr double kFullCoverageThreshold = 0.999999;

/// Probability single-side checksum ABFT detects and corrects everything in
/// one interval of length t_seconds with `blocks` = S protected blocks.
double fc_single(const hw::ErrorRates& rates, double t_seconds,
                 std::int64_t blocks);

/// Same for full-checksum ABFT (tolerates 0D and 1D).
double fc_full(const hw::ErrorRates& rates, double t_seconds,
               std::int64_t blocks);

/// Upper bounds on fc_single and fc_full from divisions only. With
/// m0 = l0 T, m1 = l1 T, m = m0 + m1 and S = blocks:
///
///   FC_full   <= 1 - m / ((1 + m) S)
///   FC_single <= (1 - m0 / ((1 + m0) S)) / (1 + m1)
///
/// Every term of either sum is >= 0 and truncation only drops terms; the
/// distinct-block factor is 1 at zero strikes and at most (S-1)/S otherwise;
/// e^{-x} <= 1/(1+x) for x >= 0; and e^{-l2 T} <= 1. The bounds apply when
/// m0, m1 and l2 T are finite and >= 0, blocks >= 1 and m <= kBoundMaxMean;
/// there a computed fc_single or fc_full exceeds its bound by less than
/// kBoundSlack (docs/PERFORMANCE.md). Elsewhere both bounds are +infinity.
struct CoverageBound {
  double single;
  double full;
};

/// Largest m the bounds apply to: each Poisson index then stops by 160.
inline constexpr double kBoundMaxMean = 64.0;
/// How far a computed coverage may exceed its exact value where the bounds
/// apply.
inline constexpr double kBoundSlack = 0x1p-30;

CoverageBound coverage_bound(const hw::ErrorRates& rates, double t_seconds,
                             std::int64_t blocks);

/// Both coverages of one ABFT-OC ladder step: the same rates, window and
/// block count. single() and full() read one row of Poisson(k; l0 T)
/// weights, filled on first use in index order, and one e^{-l2 T}, so the
/// step evaluates each of them once; each result has the bits of fc_single
/// or fc_full. The row lives in the thread's scratch arena until the step
/// is destroyed.
class StepCoverage {
 public:
  StepCoverage(const hw::ErrorRates& rates, double t_seconds,
               std::int64_t blocks);
  StepCoverage(const StepCoverage&) = delete;
  StepCoverage& operator=(const StepCoverage&) = delete;

  [[nodiscard]] double single();
  [[nodiscard]] double full();

 private:
  /// poisson_pmf(k, l0 T), computed when first asked for.
  double pk(int k);

  ArenaScope scope_;
  hw::ErrorRates rates_;
  double t_seconds_;
  std::int64_t blocks_;
  double m0_;
  double log_m0_ = 0.0;
  int kmax_ = -1;
  double e2_ = 1.0;  ///< e^{-l2 T}
  double* row_ = nullptr;
  int row_len_ = 0;
};

/// Human-readable label used by the Table-1 bench ("Full Coverage",
/// "Fault-free", or a percentage).
const char* coverage_label_static(double fc, bool fault_free);

}  // namespace bsr::abft
