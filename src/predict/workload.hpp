// Per-iteration workload model for blocked one-sided factorizations.
//
// Encodes the exact flop / byte counts of the three operations the paper's
// pipeline schedules each iteration (Fig. 1): panel decomposition (PD, CPU),
// panel update (PU, GPU), trailing-matrix update (TMU, GPU), the panel
// transfers, and the ABFT checksum maintenance costs. These counts are the
// ground truth the simulator turns into durations and the source from which
// the Table-2 complexity ratios are derived.
#pragma once

#include <cstdint>
#include <vector>

namespace bsr::predict {

enum class Factorization { Cholesky, LU, QR };

/// The operations whose execution time the slack predictor tracks.
enum class OpKind {
  PD = 0,
  PU = 1,
  TMU = 2,
  Transfer = 3,
  ChecksumUpdate = 4,
  ChecksumVerify = 5,
};
inline constexpr int kNumOpKinds = 6;

const char* to_string(Factorization f);
const char* to_string(OpKind op);

/// Exact costs of iteration k (0-based) of an n x n factorization with block
/// size b. Flops are floating-point operations; bytes are data moved.
struct IterationWork {
  double pd_flops = 0.0;        ///< CPU panel factorization
  double pu_flops = 0.0;        ///< GPU panel update (trsm / larft+apply)
  double tmu_flops = 0.0;       ///< GPU trailing-matrix update
  double transfer_bytes = 0.0;  ///< DtoH + HtoD panel traffic

  /// ABFT checksum maintenance on the GPU-side ops, per protection level.
  /// "update" covers encode + checksum-row propagation (flops); "verify" is
  /// the bandwidth-bound recompute-and-compare pass (bytes).
  double checksum_update_flops_single = 0.0;
  double checksum_update_flops_full = 0.0;
  double checksum_verify_bytes_single = 0.0;
  double checksum_verify_bytes_full = 0.0;

  [[nodiscard]] double gpu_flops() const { return pu_flops + tmu_flops; }

  /// The complexity of `op` in this iteration: the field Table 2's ratios
  /// compare.
  [[nodiscard]] double complexity(OpKind op) const;
};

/// r = ck / cj, the ratio of an op's complexities at two iterations; 1 when
/// the op has no complexity at j.
[[nodiscard]] double complexity_ratio(double cj, double ck);

struct WorkloadModel {
  Factorization fact = Factorization::LU;
  std::int64_t n = 0;
  std::int64_t b = 0;
  int elem_bytes = 8;  ///< 8 for double, 4 for float

  [[nodiscard]] int num_iterations() const {
    return static_cast<int>((n + b - 1) / b);
  }
  /// Remaining (uneliminated) dimension at the start of iteration k.
  [[nodiscard]] std::int64_t remaining(int k) const { return n - static_cast<std::int64_t>(k) * b; }

  [[nodiscard]] IterationWork iteration(int k) const;

  /// Total factorization flops (for GFLOP/s reporting): n^3/3, 2n^3/3, 4n^3/3.
  [[nodiscard]] double total_flops() const;

  /// Closed-form complexity of one op at iteration k — the quantity whose
  /// between-iteration ratios the paper tabulates in Table 2.
  [[nodiscard]] double op_complexity(OpKind op, int k) const;

  /// r^{OP}_{j,k}: ratio of theoretical complexity between iterations j and k
  /// (paper §3.2.1). Returns 1 when the op has zero complexity at j.
  [[nodiscard]] double complexity_ratio(OpKind op, int j, int k) const;
};

/// One WorkloadModel::iteration(k) row per iteration, built once for a run
/// and read by both engines and their slack histories instead of re-deriving
/// the counts per event. Immutable after construction, so one table may be
/// shared by every history of a run.
class WorkloadTable {
 public:
  explicit WorkloadTable(const WorkloadModel& model);

  [[nodiscard]] const WorkloadModel& model() const { return model_; }
  [[nodiscard]] int num_iterations() const {
    return static_cast<int>(rows_.size());
  }
  [[nodiscard]] const IterationWork& iteration(int k) const {
    return rows_[static_cast<std::size_t>(k)];
  }
  /// WorkloadModel::complexity_ratio, read from the rows.
  [[nodiscard]] double complexity_ratio(OpKind op, int j, int k) const {
    return predict::complexity_ratio(iteration(j).complexity(op),
                                     iteration(k).complexity(op));
  }

 private:
  WorkloadModel model_;
  std::vector<IterationWork> rows_;
};

}  // namespace bsr::predict
