// Algorithmic slack prediction — paper §3.2.1.
//
// Both predictors combine *profiled* execution times of earlier iterations
// with the theoretical complexity ratios r^{OP}_{j,k} of Table 2:
//
//   * FirstIterationPredictor (GreenLA [7] baseline):
//       T'_k = r_{0,k} * T_0
//     — accurate early, but profiling error and efficiency drift accumulate.
//
//   * EnhancedPredictor (this paper):
//       T'_k = sum_{i=1..p} w_i * r_{k-i,k} * T_{k-i},  p = 4,
//       w = {1/2, 1/4, 1/8, 1/8}
//     — neighbor iterations have similar input sizes and efficiency, so the
//     weighted combination stays calibrated throughout the run.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "predict/workload.hpp"

namespace bsr::predict {

/// Common interface: strategies record each op's measured duration after the
/// iteration completes and ask for the next iteration's prediction. The
/// complexity ratios come from a WorkloadTable, which every predictor of a
/// run may share.
class SlackPredictor {
 public:
  explicit SlackPredictor(std::shared_ptr<const WorkloadTable> table)
      : table_(std::move(table)) {
    for (auto& h : history_) h.assign(table_->num_iterations(), -1.0);
  }
  /// A predictor with a table of its own.
  explicit SlackPredictor(const WorkloadModel& model)
      : SlackPredictor(std::make_shared<const WorkloadTable>(model)) {}
  virtual ~SlackPredictor() = default;

  /// Records the profiled duration (seconds) of op at iteration k, normalized
  /// to the device's *base* frequency by the caller (predictions are made in
  /// base-clock terms; the strategy rescales to candidate frequencies).
  void record(OpKind op, int k, double seconds);

  /// Predicted base-clock duration of op at iteration k; falls back to pure
  /// ratio extrapolation from the most recent known iteration when the
  /// preferred profile points are missing. Returns 0 when nothing is known.
  [[nodiscard]] virtual double predict(OpKind op, int k) const = 0;

  [[nodiscard]] const WorkloadModel& model() const { return table_->model(); }

 protected:
  [[nodiscard]] double measured(OpKind op, int k) const {
    return history_[static_cast<int>(op)][k];
  }
  [[nodiscard]] double ratio(OpKind op, int j, int k) const {
    return table_->complexity_ratio(op, j, k);
  }

  std::shared_ptr<const WorkloadTable> table_;
  std::array<std::vector<double>, kNumOpKinds> history_;
};

class FirstIterationPredictor final : public SlackPredictor {
 public:
  using SlackPredictor::SlackPredictor;
  [[nodiscard]] double predict(OpKind op, int k) const override;
};

class EnhancedPredictor final : public SlackPredictor {
 public:
  explicit EnhancedPredictor(std::shared_ptr<const WorkloadTable> table,
                             int p = 4,
                             std::array<double, 4> weights = {0.5, 0.25, 0.125,
                                                              0.125})
      : SlackPredictor(std::move(table)), p_(p), weights_(weights) {}
  explicit EnhancedPredictor(const WorkloadModel& model,
                             int p = 4,
                             std::array<double, 4> weights = {0.5, 0.25, 0.125,
                                                              0.125})
      : SlackPredictor(model), p_(p), weights_(weights) {}

  [[nodiscard]] double predict(OpKind op, int k) const override;

 private:
  int p_;
  std::array<double, 4> weights_;
};

}  // namespace bsr::predict
