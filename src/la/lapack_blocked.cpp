#include <algorithm>

#include "common/arena.hpp"
#include "la/lapack.hpp"

namespace bsr::la {

template <typename T>
idx potrf(MatrixView<T> a, idx nb) {
  const idx n = a.rows();
  if (nb <= 0) nb = 64;
  for (idx k = 0; k < n; k += nb) {
    const idx b = std::min(nb, n - k);
    auto akk = a.block(k, k, b, b);
    const idx info = potf2(akk);
    if (info != 0) return k + info;
    const idx rest = n - k - b;
    if (rest > 0) {
      // L21 = A21 * L11^{-T}
      trsm(Side::Right, Uplo::Lower, Op::Trans, Diag::NonUnit, T(1),
           akk.as_const(), a.block(k + b, k, rest, b));
      // A22 -= L21 * L21^T
      syrk(Uplo::Lower, Op::NoTrans, T(-1), a.block(k + b, k, rest, b).as_const(), T(1),
           a.block(k + b, k + b, rest, rest));
    }
  }
  return 0;
}

template <typename T>
idx getrf(MatrixView<T> a, idx nb, std::vector<idx>& ipiv) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  if (nb <= 0) nb = 64;
  ipiv.assign(k, 0);
  idx info = 0;
  for (idx j = 0; j < k; j += nb) {
    const idx b = std::min(nb, k - j);
    // Factor the panel A(j:m, j:j+b).
    std::vector<idx> piv;
    const idx pinfo = getf2(a.block(j, j, m - j, b), piv);
    if (pinfo != 0 && info == 0) info = j + pinfo;
    for (idx i = 0; i < b; ++i) ipiv[j + i] = piv[i] + j;
    // Apply the panel's interchanges to the columns left and right of it.
    if (j > 0) laswp(a.block(0, 0, m, j), ipiv, j, j + b);
    if (j + b < n) {
      laswp(a.block(0, j + b, m, n - j - b), ipiv, j, j + b);
      // U12 = L11^{-1} A12
      trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T(1),
           a.block(j, j, b, b).as_const(), a.block(j, j + b, b, n - j - b));
      // A22 -= L21 * U12
      if (j + b < m) {
        gemm(Op::NoTrans, Op::NoTrans, T(-1),
             a.block(j + b, j, m - j - b, b).as_const(),
             a.block(j, j + b, b, n - j - b).as_const(), T(1),
             a.block(j + b, j + b, m - j - b, n - j - b));
      }
    }
  }
  return info;
}

template <typename T>
void larfb_left_trans(ConstMatrixView<T> v, ConstMatrixView<T> t, MatrixView<T> c) {
  // c := (I - V T V^T)^T c = c - V T^T V^T c, V m x k unit lower trapezoidal.
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = v.cols();
  if (m == 0 || n == 0 || k == 0) return;

  // Panel scratch lives in the thread-local arena: every element of vexp is
  // written below, and w/tw are fully overwritten by their beta == 0 gemms,
  // so none of it needs the zero-fill a Matrix would pay per panel.
  ArenaScope scope(Arena::scratch());
  T* vbuf = scope.alloc<T>(static_cast<std::size_t>(m) *
                           static_cast<std::size_t>(k));
  MatrixView<T> vexp(vbuf, m, k, m);
  // W = V^T C (k x n) with the unit-lower-trapezoidal structure made explicit.
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < m; ++i) {
      if (i < j) {
        vexp(i, j) = T(0);
      } else if (i == j) {
        vexp(i, j) = T(1);
      } else {
        vexp(i, j) = v(i, j);
      }
    }
  }
  T* wbuf = scope.alloc<T>(static_cast<std::size_t>(k) *
                           static_cast<std::size_t>(n));
  MatrixView<T> w(wbuf, k, n, k);
  gemm(Op::Trans, Op::NoTrans, T(1), vexp.as_const(), c.as_const(), T(0), w);
  // W := T^T W
  T* twbuf = scope.alloc<T>(static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(n));
  MatrixView<T> tw(twbuf, k, n, k);
  gemm(Op::Trans, Op::NoTrans, T(1), t, w.as_const(), T(0), tw);
  // C -= V * W
  gemm(Op::NoTrans, Op::NoTrans, T(-1), vexp.as_const(), tw.as_const(), T(1),
       c);
}

template <typename T>
idx geqrf(MatrixView<T> a, idx nb, std::vector<T>& tau) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  if (nb <= 0) nb = 64;
  tau.assign(k, T(0));
  Matrix<T> t(nb, nb);
  for (idx j = 0; j < k; j += nb) {
    const idx b = std::min(nb, k - j);
    std::vector<T> panel_tau;
    geqr2(a.block(j, j, m - j, b), panel_tau);
    std::copy(panel_tau.begin(), panel_tau.end(), tau.begin() + j);
    if (j + b < n) {
      auto vpanel = ConstMatrixView<T>(a.block(j, j, m - j, b));
      auto tview = t.block(0, 0, b, b);
      larft(vpanel, panel_tau.data(), tview);
      larfb_left_trans(vpanel, ConstMatrixView<T>(tview),
                       a.block(j, j + b, m - j, n - j - b));
    }
  }
  return 0;
}

namespace {

// Eight columns of Q held row-interleaved: row i of a block is the eight
// entries q(i, c0:c0+8) as 16-byte vectors of the GCC/Clang vector
// extension. Every operation on them is lane-wise, so each lane is one
// column's own chain of the scalar operations.
constexpr idx kLanes = 8;

template <typename T>
struct Lanes;
template <>
struct Lanes<float> {
  typedef float V __attribute__((vector_size(16)));
};
template <>
struct Lanes<double> {
  typedef double V __attribute__((vector_size(16)));
};

/// Lanes per vector, and vectors per interleaved row.
template <typename T>
constexpr idx kPerVec =
    static_cast<idx>(sizeof(typename Lanes<T>::V) / sizeof(T));
template <typename T>
constexpr idx kRowVecs = kLanes / kPerVec<T>;

/// H_j = I - tau v v^T on rows j: of the interleaved block x, with
/// v = (1, vj[j+1:m]): for each lane, the dot with v in ascending i and then
/// the axpy with -tau times it, larf_left's operations for one column.
template <typename T>
void reflect_lanes(typename Lanes<T>::V* x, idx m, idx j, const T* vj,
                   T tau) {
  using V = typename Lanes<T>::V;
  constexpr idx kRow = kRowVecs<T>;
  V s[kRow] = {};
  V* xj = x + j * kRow;
  for (idx q = 0; q < kRow; ++q) s[q] += xj[q] * T(1);
  for (idx i = j + 1; i < m; ++i) {
    const T vi = vj[i];
    const V* xi = x + i * kRow;
    for (idx q = 0; q < kRow; ++q) s[q] += xi[q] * vi;
  }
  V alpha[kRow];
  for (idx q = 0; q < kRow; ++q) alpha[q] = -tau * s[q];
  for (idx q = 0; q < kRow; ++q) xj[q] += alpha[q] * T(1);
  for (idx i = j + 1; i < m; ++i) {
    const T vi = vj[i];
    V* xi = x + i * kRow;
    for (idx q = 0; q < kRow; ++q) xi[q] += alpha[q] * vi;
  }
}

}  // namespace

template <typename T>
Matrix<T> form_q(ConstMatrixView<T> qr, const std::vector<T>& tau) {
  using V = typename Lanes<T>::V;
  constexpr idx kPer = kPerVec<T>;
  constexpr idx kRow = kRowVecs<T>;
  const idx m = qr.rows();
  const idx k = static_cast<idx>(tau.size());
  Matrix<T> q(m, m);
  fill_identity(q.view());
  // Q = H_0 H_1 ... H_{k-1}; apply in reverse to the identity from the left.
  // H_j touches rows j: only, and columns < j of those rows are the
  // identity's +0.0 before and after it: their dot with v is +0, and
  // +0 + (+-0) = +0 for finite v and tau. So H_j is applied to q(j:, j:).
  //
  // Column c therefore takes H_min(c, k-1), ..., H_0 in turn, independently
  // of every other column, and the columns go eight at a time. The
  // reflectors above a block's first column reach only its columns j: and
  // run through larf_left; the rest run on all eight lanes at once.
  std::vector<T> v(static_cast<std::size_t>(m));
  ArenaScope scope(Arena::scratch());
  V* x = scope.alloc<V>(static_cast<std::size_t>(m * kRow));
  for (idx c0 = 0; c0 < m; c0 += kLanes) {
    const idx w = std::min(kLanes, m - c0);
    for (idx j = std::min(k - 1, c0 + w - 1); j > c0; --j) {
      v[0] = T(1);
      for (idx i = 1; i < m - j; ++i) v[i] = qr(j + i, j);
      larf_left(v.data(), tau[j], q.block(j, j, m - j, c0 + w - j));
    }
    for (idx i = 0; i < m; ++i) {
      for (idx l = 0; l < kLanes; ++l) {
        x[i * kRow + l / kPer][l % kPer] = l < w ? q(i, c0 + l) : T(0);
      }
    }
    for (idx j = std::min(k - 1, c0); j >= 0; --j) {
      if (tau[j] != T(0)) reflect_lanes(x, m, j, qr.col(j), tau[j]);
    }
    for (idx i = 0; i < m; ++i) {
      for (idx l = 0; l < w; ++l) {
        q(i, c0 + l) = x[i * kRow + l / kPer][l % kPer];
      }
    }
  }
  return q;
}

#define BSR_LA_INSTANTIATE(T)                                                  \
  template idx potrf<T>(MatrixView<T>, idx);                                   \
  template idx getrf<T>(MatrixView<T>, idx, std::vector<idx>&);                \
  template void larfb_left_trans<T>(ConstMatrixView<T>, ConstMatrixView<T>,    \
                                    MatrixView<T>);                            \
  template idx geqrf<T>(MatrixView<T>, idx, std::vector<T>&);                  \
  template Matrix<T> form_q<T>(ConstMatrixView<T>, const std::vector<T>&);

BSR_LA_INSTANTIATE(float)
BSR_LA_INSTANTIATE(double)
#undef BSR_LA_INSTANTIATE

}  // namespace bsr::la
