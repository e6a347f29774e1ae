#include "la/solve.hpp"

#include <vector>

#include "la/lapack.hpp"

namespace bsr::la {

template <typename T>
void potrs(ConstMatrixView<T> l, MatrixView<T> b) {
  // A = L L^T: forward then backward substitution.
  trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T(1), l, b);
  trsm(Side::Left, Uplo::Lower, Op::Trans, Diag::NonUnit, T(1), l, b);
}

template <typename T>
void getrs(ConstMatrixView<T> lu, const std::vector<idx>& ipiv, MatrixView<T> b) {
  // P A = L U: apply P to b, then L y = Pb (unit lower), then U x = y.
  laswp(b, ipiv, 0, static_cast<idx>(ipiv.size()));
  trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T(1), lu, b);
  trsm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T(1), lu, b);
}

template <typename T>
void apply_qt(ConstMatrixView<T> qr, const std::vector<T>& tau, MatrixView<T> b) {
  // Q = H_0 ... H_{k-1}; Q^T b applies H_{k-1} ... H_0? No: Q^T = H_{k-1}^T
  // ... H_0^T and each H is symmetric, so Q^T b = H_{k-1} ... H_0 b — apply in
  // forward order.
  const idx m = qr.rows();
  const idx k = static_cast<idx>(tau.size());
  std::vector<T> v(m);
  for (idx j = 0; j < k; ++j) {
    if (tau[j] == T(0)) continue;
    v[0] = T(1);
    for (idx i = 1; i < m - j; ++i) v[i] = qr(j + i, j);
    larf_left(v.data(), tau[j], b.block(j, 0, m - j, b.cols()));
  }
}

template <typename T>
void geqrs(ConstMatrixView<T> qr, const std::vector<T>& tau, MatrixView<T> b) {
  const idx n = qr.cols();
  apply_qt(qr, tau, b);
  // R x = (Q^T b)(0:n): back substitution on the upper triangle of qr.
  trsm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T(1),
       qr.block(0, 0, n, n), b.block(0, 0, n, b.cols()));
}

#define BSR_LA_INSTANTIATE(T)                                                 \
  template void potrs<T>(ConstMatrixView<T>, MatrixView<T>);                  \
  template void getrs<T>(ConstMatrixView<T>, const std::vector<idx>&,         \
                         MatrixView<T>);                                      \
  template void apply_qt<T>(ConstMatrixView<T>, const std::vector<T>&,        \
                            MatrixView<T>);                                   \
  template void geqrs<T>(ConstMatrixView<T>, const std::vector<T>&,           \
                         MatrixView<T>);

BSR_LA_INSTANTIATE(float)
BSR_LA_INSTANTIATE(double)
#undef BSR_LA_INSTANTIATE

}  // namespace bsr::la
