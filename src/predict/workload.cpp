#include "predict/workload.hpp"

#include <algorithm>
#include <cassert>

namespace bsr::predict {

const char* to_string(Factorization f) {
  switch (f) {
    case Factorization::Cholesky: return "Cholesky";
    case Factorization::LU: return "LU";
    case Factorization::QR: return "QR";
  }
  return "?";
}

const char* to_string(OpKind op) {
  switch (op) {
    case OpKind::PD: return "PD";
    case OpKind::PU: return "PU";
    case OpKind::TMU: return "TMU";
    case OpKind::Transfer: return "Transfer";
    case OpKind::ChecksumUpdate: return "ChecksumUpdate";
    case OpKind::ChecksumVerify: return "ChecksumVerify";
  }
  return "?";
}

IterationWork WorkloadModel::iteration(int k) const {
  assert(k >= 0 && k < num_iterations());
  IterationWork w;
  const double m = static_cast<double>(remaining(k));
  const double bb = std::min<double>(static_cast<double>(b), m);
  const double mt = std::max(0.0, m - bb);  // trailing dimension
  const double eb = elem_bytes;

  double area = 0.0;  // trailing region touched by the GPU update
  switch (fact) {
    case Factorization::Cholesky:
      // PD: potf2 on the b x b diagonal block (CPU). Constant per iteration,
      // which is why the paper's Table 2 lists the PD-Cho ratio as 1.
      w.pd_flops = bb * bb * bb / 3.0;
      // PU: L21 = A21 * L11^{-T} (trsm, GPU).
      w.pu_flops = mt * bb * bb;
      // TMU: A22 -= L21 L21^T (syrk over the lower triangle, GPU).
      w.tmu_flops = mt * mt * bb;
      // Only the diagonal block round-trips over the link.
      w.transfer_bytes = 2.0 * bb * bb * eb;
      area = mt * mt;
      break;
    case Factorization::LU:
      // PD: getf2 on the m x b panel (CPU).
      w.pd_flops = m * bb * bb - bb * bb * bb / 3.0;
      // PU: U12 = L11^{-1} A12 (trsm, GPU).
      w.pu_flops = bb * bb * mt;
      // TMU: A22 -= L21 U12 (gemm, GPU).
      w.tmu_flops = 2.0 * mt * mt * bb;
      // Full panel goes DtoH for pivoting + factorization and back.
      w.transfer_bytes = 2.0 * m * bb * eb;
      area = mt * mt;
      break;
    case Factorization::QR:
      // PD: geqr2 on the m x b panel (CPU).
      w.pd_flops = 2.0 * bb * bb * (m - bb / 3.0);
      // PU: form the block-reflector factor T (larft) + aux (GPU).
      w.pu_flops = bb * bb * m;
      // TMU: apply (I - V T V^T)^T to the trailing columns (larfb, GPU).
      w.tmu_flops = 4.0 * m * bb * mt;
      w.transfer_bytes = 2.0 * m * bb * eb;
      area = m * mt;
      break;
  }

  // ABFT maintenance on GPU-side ops: skinny checksum-row propagation through
  // the update (flops, two checksum rows per block) plus per-iteration
  // re-encoding of the trailing region; verification is a recompute-and-
  // compare pass over the result (bandwidth bound). Full checksum doubles
  // both because rows *and* columns are encoded.
  const double gpu_op_flops = w.pu_flops + w.tmu_flops;
  const double update_single = (2.0 / std::max(1.0, bb)) * gpu_op_flops + 2.0 * area;
  w.checksum_update_flops_single = update_single;
  w.checksum_update_flops_full = 2.0 * update_single;
  w.checksum_verify_bytes_single = area * eb;
  w.checksum_verify_bytes_full = 2.0 * area * eb;
  return w;
}

double WorkloadModel::total_flops() const {
  const double nn = static_cast<double>(n);
  switch (fact) {
    case Factorization::Cholesky: return nn * nn * nn / 3.0;
    case Factorization::LU: return 2.0 * nn * nn * nn / 3.0;
    case Factorization::QR: return 4.0 * nn * nn * nn / 3.0;
  }
  return 0.0;
}

double IterationWork::complexity(OpKind op) const {
  switch (op) {
    case OpKind::PD: return pd_flops;
    case OpKind::PU: return pu_flops;
    case OpKind::TMU: return tmu_flops;
    case OpKind::Transfer: return transfer_bytes;
    case OpKind::ChecksumUpdate: return checksum_update_flops_single;
    case OpKind::ChecksumVerify: return checksum_verify_bytes_single;
  }
  return 0.0;
}

double complexity_ratio(double cj, double ck) {
  if (cj <= 0.0) return 1.0;
  return ck / cj;
}

double WorkloadModel::op_complexity(OpKind op, int k) const {
  return iteration(k).complexity(op);
}

double WorkloadModel::complexity_ratio(OpKind op, int j, int k) const {
  return predict::complexity_ratio(op_complexity(op, j), op_complexity(op, k));
}

WorkloadTable::WorkloadTable(const WorkloadModel& model) : model_(model) {
  const int iters = model.num_iterations();
  rows_.reserve(static_cast<std::size_t>(std::max(iters, 0)));
  for (int k = 0; k < iters; ++k) rows_.push_back(model.iteration(k));
}

}  // namespace bsr::predict
