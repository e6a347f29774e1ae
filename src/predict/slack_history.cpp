#include "predict/slack_history.hpp"

#include <cassert>

namespace bsr::predict {

namespace {

constexpr int kWindow = 4;
constexpr double kWeights[kWindow] = {0.5, 0.25, 0.125, 0.125};

}  // namespace

SlackHistory::SlackHistory(const WorkloadTable& table)
    : table_(&table),
      iters_(static_cast<std::size_t>(table.num_iterations())),
      seconds_(kNumOpKinds * iters_, -1.0) {}

void SlackHistory::record(OpKind op, int k, double seconds) {
  assert(k >= 0 && static_cast<std::size_t>(k) < iters_);
  seconds_[static_cast<std::size_t>(op) * iters_ +
           static_cast<std::size_t>(k)] = seconds;
}

double SlackHistory::predict(OpKind op, int k, bool enhanced) const {
  const double t0 = measured(op, 0);
  if (k == 0) return t0 < 0.0 ? 0.0 : t0;
  if (!enhanced) {
    return t0 < 0.0 ? 0.0 : table_->complexity_ratio(op, 0, k) * t0;
  }
  double weight_sum = 0.0;
  double acc = 0.0;
  for (int i = 1; i <= kWindow && k - i >= 0; ++i) {
    const double t = measured(op, k - i);
    if (t < 0.0) continue;
    const double w = kWeights[i - 1];
    acc += w * table_->complexity_ratio(op, k - i, k) * t;
    weight_sum += w;
  }
  if (weight_sum <= 0.0) {
    // Nothing profiled in the window; fall back to the most recent known
    // point anywhere in the history.
    for (int j = k - 1; j >= 0; --j) {
      const double t = measured(op, j);
      if (t >= 0.0) return table_->complexity_ratio(op, j, k) * t;
    }
    return 0.0;
  }
  return acc / weight_sum;
}

}  // namespace bsr::predict
