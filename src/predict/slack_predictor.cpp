#include "predict/slack_predictor.hpp"

#include <cassert>

namespace bsr::predict {

void SlackPredictor::record(OpKind op, int k, double seconds) {
  assert(k >= 0 && k < table_->num_iterations());
  history_[static_cast<int>(op)][k] = seconds;
}

double FirstIterationPredictor::predict(OpKind op, int k) const {
  const double t0 = measured(op, 0);
  if (t0 < 0.0) return 0.0;
  if (k == 0) return t0;
  return ratio(op, 0, k) * t0;
}

double EnhancedPredictor::predict(OpKind op, int k) const {
  if (k == 0) {
    const double t0 = measured(op, 0);
    return t0 < 0.0 ? 0.0 : t0;
  }
  double weight_sum = 0.0;
  double acc = 0.0;
  for (int i = 1; i <= p_ && k - i >= 0; ++i) {
    const double t = measured(op, k - i);
    if (t < 0.0) continue;
    const double w = weights_[i - 1];
    acc += w * ratio(op, k - i, k) * t;
    weight_sum += w;
  }
  if (weight_sum <= 0.0) {
    // Nothing profiled in the window; fall back to the most recent known
    // point anywhere in the history.
    for (int j = k - 1; j >= 0; --j) {
      const double t = measured(op, j);
      if (t >= 0.0) return ratio(op, j, k) * t;
    }
    return 0.0;
  }
  return acc / weight_sum;
}

}  // namespace bsr::predict
