#include <cmath>
#include <utility>

#include "la/lapack.hpp"

namespace bsr::la {

template <typename T>
idx potf2(MatrixView<T> a) {
  const idx n = a.rows();
  for (idx j = 0; j < n; ++j) {
    T d = a(j, j) - dot(j, &a(j, 0), a.ld(), &a(j, 0), a.ld());
    if (d <= T(0) || !std::isfinite(static_cast<double>(d))) return j + 1;
    d = std::sqrt(d);
    a(j, j) = d;
    if (j + 1 < n) {
      // a(j+1:, j) = (a(j+1:, j) - A(j+1:, :j) * a(j, :j)^T) / d
      for (idx k = 0; k < j; ++k) {
        axpy(n - j - 1, -a(j, k), &a(j + 1, k), 1, &a(j + 1, j), 1);
      }
      scal(n - j - 1, T(1) / d, &a(j + 1, j), 1);
    }
  }
  return 0;
}

template <typename T>
idx getf2(MatrixView<T> a, std::vector<idx>& ipiv) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  ipiv.assign(k, 0);
  idx info = 0;
  for (idx j = 0; j < k; ++j) {
    const idx p = j + iamax(m - j, &a(j, j), 1);
    ipiv[j] = p;
    if (a(p, j) != T(0)) {
      if (p != j) swap(n, &a(j, 0), a.ld(), &a(p, 0), a.ld());
      if (j + 1 < m) scal(m - j - 1, T(1) / a(j, j), &a(j + 1, j), 1);
    } else if (info == 0) {
      info = j + 1;
    }
    if (j + 1 < m && j + 1 < n) {
      ger(T(-1), &a(j + 1, j), 1, &a(j, j + 1), a.ld(),
          a.block(j + 1, j + 1, m - j - 1, n - j - 1));
    }
  }
  return info;
}

template <typename T>
void laswp(MatrixView<T> a, const std::vector<idx>& ipiv, idx k0, idx k1) {
  // Column by column over contiguous memory: each column sees the same
  // interchanges in the same order as a row-at-a-time sweep, and a swap
  // moves bits exactly.
  for (idx j = 0; j < a.cols(); ++j) {
    T* col = a.col(j);
    for (idx kk = k0; kk < k1; ++kk) {
      const idx p = ipiv[kk];
      if (p != kk) std::swap(col[kk], col[p]);
    }
  }
}

template <typename T>
void larfg(idx n, T& alpha, T* x, idx incx, T& tau) {
  if (n <= 1) {
    tau = T(0);
    return;
  }
  const T xnorm = nrm2(n - 1, x, incx);
  if (xnorm == T(0)) {
    tau = T(0);
    return;
  }
  T beta = std::sqrt(alpha * alpha + xnorm * xnorm);
  if (alpha >= T(0)) beta = -beta;
  tau = (beta - alpha) / beta;
  scal(n - 1, T(1) / (alpha - beta), x, incx);
  alpha = beta;
}

template <typename T>
void larf_left(const T* v, T tau, MatrixView<T> c) {
  // c := (I - tau v v^T) c; v(0) == 1 implicit, caller passes v with explicit 1.
  // Each column gets its dot with v, then its axpy, while it is still in
  // cache. Four columns' dots run as independent chains, each summing in
  // ascending i, so every column sees exactly the two-pass operations.
  if (tau == T(0)) return;
  const idx m = c.rows();
  const idx n = c.cols();
  const T* BSR_RESTRICT vr = v;
  idx j = 0;
  for (; j + 4 <= n; j += 4) {
    T* BSR_RESTRICT c0 = c.col(j);
    T* BSR_RESTRICT c1 = c.col(j + 1);
    T* BSR_RESTRICT c2 = c.col(j + 2);
    T* BSR_RESTRICT c3 = c.col(j + 3);
    T s0 = 0;
    T s1 = 0;
    T s2 = 0;
    T s3 = 0;
    for (idx i = 0; i < m; ++i) {
      const T vi = vr[i];
      s0 += c0[i] * vi;
      s1 += c1[i] * vi;
      s2 += c2[i] * vi;
      s3 += c3[i] * vi;
    }
    axpy(m, -tau * s0, v, 1, c0, 1);
    axpy(m, -tau * s1, v, 1, c1, 1);
    axpy(m, -tau * s2, v, 1, c2, 1);
    axpy(m, -tau * s3, v, 1, c3, 1);
  }
  for (; j < n; ++j) {
    T* cj = c.col(j);
    axpy(m, -tau * dot(m, cj, 1, v, 1), v, 1, cj, 1);
  }
}

template <typename T>
idx geqr2(MatrixView<T> a, std::vector<T>& tau) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  tau.assign(k, T(0));
  std::vector<T> v(m);
  for (idx j = 0; j < k; ++j) {
    larfg(m - j, a(j, j), (j + 1 < m) ? &a(j + 1, j) : nullptr, 1, tau[j]);
    if (j + 1 < n && tau[j] != T(0)) {
      // Apply H_j to the trailing columns using an explicit v with leading 1.
      v[0] = T(1);
      for (idx i = 1; i < m - j; ++i) v[i] = a(j + i, j);
      larf_left(v.data(), tau[j], a.block(j, j + 1, m - j, n - j - 1));
    }
  }
  return 0;
}

template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const idx k = v.cols();
  const idx m = v.rows();
  // Forward, columnwise storage: T is k x k upper triangular.
  for (idx i = 0; i < k; ++i) {
    for (idx j = 0; j < k; ++j) t(i, j) = T(0);
  }
  for (idx i = 0; i < k; ++i) {
    t(i, i) = tau[i];
    if (i == 0 || tau[i] == T(0)) continue;
    // t(0:i, i) = -tau_i * T(0:i, 0:i) * (V(:, 0:i)^T v_i)
    std::vector<T> w(i, T(0));
    // v_i has implicit 1 at row i and entries below.
    for (idx j = 0; j < i; ++j) {
      // V(:, j)^T v_i — V(:, j) has implicit 1 at row j, explicit below.
      T s = v(i, j);  // row i of column j times the implicit 1 of v_i
      for (idx r = i + 1; r < m; ++r) s += v(r, j) * v(r, i);
      w[j] = -tau[i] * s;
    }
    // t(0:i, i) = T(0:i, 0:i) * w (upper triangular multiply)
    for (idx r = 0; r < i; ++r) {
      T s = 0;
      for (idx c = r; c < i; ++c) s += t(r, c) * w[c];
      t(r, i) = s;
    }
  }
}

#define BSR_LA_INSTANTIATE(T)                                                    \
  template idx potf2<T>(MatrixView<T>);                                          \
  template idx getf2<T>(MatrixView<T>, std::vector<idx>&);                       \
  template void laswp<T>(MatrixView<T>, const std::vector<idx>&, idx, idx);      \
  template void larfg<T>(idx, T&, T*, idx, T&);                                  \
  template void larf_left<T>(const T*, T, MatrixView<T>);                        \
  template idx geqr2<T>(MatrixView<T>, std::vector<T>&);                         \
  template void larft<T>(ConstMatrixView<T>, const T*, MatrixView<T>);

BSR_LA_INSTANTIATE(float)
BSR_LA_INSTANTIATE(double)
#undef BSR_LA_INSTANTIATE

}  // namespace bsr::la
