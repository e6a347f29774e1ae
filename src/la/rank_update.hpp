// Rank-1 update kernels shared by gemm, fill_spd and the residual checks.
//
// Private to the la module. Each kernel adds w * a(i) to a column, one
// rounded `s += w * a[i]` statement per term, in the order the weights are
// given, so a caller that hands them in ascending k reproduces a plain
// k-ascending rank-1 sweep bit for bit (storing and reloading a value
// between passes is exact). `__restrict` holds under the BLAS contract:
// an output column never overlaps an input column.
#pragma once

#include "la/blas.hpp"

namespace bsr::la {

// Four consecutive rank-1 updates of one column, A loads amortized over the
// unrolled body.
template <typename T>
inline void rank4_col(idx m, T* BSR_RESTRICT cj, const T* BSR_RESTRICT a0,
                      const T* BSR_RESTRICT a1, const T* BSR_RESTRICT a2,
                      const T* BSR_RESTRICT a3, T w0, T w1, T w2, T w3) {
  for (idx i = 0; i < m; ++i) {
    T s = cj[i];
    s += w0 * a0[i];
    s += w1 * a1[i];
    s += w2 * a2[i];
    s += w3 * a3[i];
    cj[i] = s;
  }
}

// Four consecutive rank-1 updates applied to two columns sharing the same
// A panel: each a(i,k) load feeds both accumulators, halving A traffic.
template <typename T>
inline void rank4_pair(idx m, T* BSR_RESTRICT c0, T* BSR_RESTRICT c1,
                       const T* BSR_RESTRICT a0, const T* BSR_RESTRICT a1,
                       const T* BSR_RESTRICT a2, const T* BSR_RESTRICT a3,
                       const T* BSR_RESTRICT w0, const T* BSR_RESTRICT w1) {
  const T w00 = w0[0], w01 = w0[1], w02 = w0[2], w03 = w0[3];
  const T w10 = w1[0], w11 = w1[1], w12 = w1[2], w13 = w1[3];
  for (idx i = 0; i < m; ++i) {
    const T x0 = a0[i], x1 = a1[i], x2 = a2[i], x3 = a3[i];
    T s = c0[i];
    s += w00 * x0;
    s += w01 * x1;
    s += w02 * x2;
    s += w03 * x3;
    c0[i] = s;
    T t = c1[i];
    t += w10 * x0;
    t += w11 * x1;
    t += w12 * x2;
    t += w13 * x3;
    c1[i] = t;
  }
}

// Applies a compacted term list to one column: acol/w hold the surviving
// (A column, weight) pairs in the order they are to be added.
template <typename T>
inline void apply_compacted(idx m, T* cj, const T* const* acol, const T* w,
                            idx nnz) {
  idx t = 0;
  for (; t + 4 <= nnz; t += 4) {
    rank4_col(m, cj, acol[t], acol[t + 1], acol[t + 2], acol[t + 3], w[t],
              w[t + 1], w[t + 2], w[t + 3]);
  }
  for (; t < nnz; ++t) {
    T* BSR_RESTRICT cr = cj;
    const T* BSR_RESTRICT ak = acol[t];
    const T wt = w[t];
    for (idx i = 0; i < m; ++i) cr[i] += wt * ak[i];
  }
}

}  // namespace bsr::la
