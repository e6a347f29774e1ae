// Algorithmic slack prediction — paper §3.2.1.
//
// One lane's profiled execution times of earlier iterations, combined with
// the theoretical complexity ratios r^{OP}_{j,k} of Table 2 by either of two
// formulas:
//
//   * first-iteration profiling (GreenLA [7] baseline):
//       T'_k = r_{0,k} * T_0
//     — accurate early, but profiling error and efficiency drift accumulate.
//
//   * enhanced (this paper):
//       T'_k = sum_{i=1..p} w_i * r_{k-i,k} * T_{k-i},  p = 4,
//       w = {1/2, 1/4, 1/8, 1/8}
//     — neighbor iterations have similar input sizes and efficiency, so the
//     weighted combination stays calibrated throughout the run.
#pragma once

#include <vector>

#include "predict/workload.hpp"

namespace bsr::predict {

/// The engine records each op's measured duration after the iteration
/// completes; strategies read the next iteration's prediction. The
/// complexity ratios come from the run's WorkloadTable, which must outlive
/// the history.
class SlackHistory {
 public:
  explicit SlackHistory(const WorkloadTable& table);

  /// Records the profiled duration (seconds) of op at iteration k, normalized
  /// to the device's *base* frequency by the caller (predictions are made in
  /// base-clock terms; the strategy rescales to candidate frequencies).
  void record(OpKind op, int k, double seconds);

  /// Predicted base-clock duration of op at iteration k, by the enhanced
  /// formula when `enhanced`, by first-iteration profiling otherwise. The
  /// enhanced formula falls back to pure ratio extrapolation from the most
  /// recent known iteration when its window holds no profile. Returns 0 when
  /// nothing is known.
  [[nodiscard]] double predict(OpKind op, int k, bool enhanced) const;

 private:
  [[nodiscard]] double measured(OpKind op, int k) const {
    return seconds_[static_cast<std::size_t>(op) * iters_ +
                    static_cast<std::size_t>(k)];
  }

  const WorkloadTable* table_;
  std::size_t iters_;
  std::vector<double> seconds_;  ///< one row per OpKind; < 0 = not profiled
};

}  // namespace bsr::predict
