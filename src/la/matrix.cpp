#include "la/matrix.hpp"

#include <algorithm>

#include "la/blas.hpp"
#include "la/rank_update.hpp"

namespace bsr::la {

template <typename T>
void fill_spd(MatrixView<T> a, Rng& rng) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  // A = B * B^T + n * I. Every a(i, j), i >= j, is the sum s = 0,
  // s += b(j,k) * b(i,k) for k ascending, then s += n on the diagonal, and
  // a(j, i) mirrors it. The loops run two output columns at a time over
  // rows j:n, four k per pass in gemm's rank4_pair shape, with the two
  // columns' partial sums in an n x 2 scratch: only which sum advances
  // next changes, never the operations inside one. B is finite, so
  // b(j,k) * b(i,k) has the bits of b(i,k) * b(j,k).
  Matrix<T> b(n, n);
  fill_random(b.view(), rng);
  const MatrixView<T> bv = b.view();
  Matrix<T> acc(n, 2);
  for (idx j = 0; j < n; j += 2) {
    const bool pair = j + 1 < n;
    const idx rows = n - j;
    T* BSR_RESTRICT s0 = acc.data();
    T* BSR_RESTRICT s1 = s0 + n;
    std::fill(s0, s0 + rows, T(0));
    std::fill(s1, s1 + rows, T(0));
    // Past the last column the weights are zero and the sums unused.
    T w0[4];
    T w1[4] = {};
    idx k = 0;
    for (; k + 4 <= n; k += 4) {
      for (idx t = 0; t < 4; ++t) {
        w0[t] = b(j, k + t);
        if (pair) w1[t] = b(j + 1, k + t);
      }
      rank4_pair(rows, s0, s1, bv.col(k) + j, bv.col(k + 1) + j,
                 bv.col(k + 2) + j, bv.col(k + 3) + j, w0, w1);
    }
    for (; k < n; ++k) {
      const T* BSR_RESTRICT bk = bv.col(k) + j;
      const T v0 = b(j, k);
      const T v1 = pair ? b(j + 1, k) : T(0);
      for (idx i = 0; i < rows; ++i) {
        s0[i] += v0 * bk[i];
        s1[i] += v1 * bk[i];
      }
    }
    for (idx c = 0; c < (pair ? 2 : 1); ++c) {
      const T* sc = acc.data() + c * n;
      for (idx i = j + c; i < n; ++i) {
        T s = sc[i - j];
        if (i == j + c) s += static_cast<T>(n);
        a(i, j + c) = s;
        a(j + c, i) = s;
      }
    }
  }
}

template void fill_spd<float>(MatrixView<float>, Rng&);
template void fill_spd<double>(MatrixView<double>, Rng&);

}  // namespace bsr::la
