#include "la/matrix.hpp"

#include <algorithm>

#include "la/blas.hpp"

namespace bsr::la {

template <typename T>
void fill_spd(MatrixView<T> a, Rng& rng) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  // A = B * B^T + n * I. Every a(i, j), i >= j, is the sum s = 0,
  // s += b(i,k) * b(j,k) for k ascending, then s += n on the diagonal, and
  // a(j, i) mirrors it. The loops run four output columns at a time, k
  // outside, i inside over the contiguous b(j0:n, k), with the four columns'
  // partial sums in a 4 x n scratch: only which sum advances next changes,
  // never the operations inside one.
  Matrix<T> b(n, n);
  fill_random(b.view(), rng);
  constexpr idx kCols = 4;
  Matrix<T> acc(n, kCols);
  for (idx j0 = 0; j0 < n; j0 += kCols) {
    const idx jb = std::min(kCols, n - j0);
    const idx rows = n - j0;
    acc.fill(T(0));
    for (idx k = 0; k < n; ++k) {
      const T* BSR_RESTRICT bk = b.data() + j0 + k * n;
      // Past the last column the weights are zero and the sums unused.
      T w[kCols] = {};
      for (idx c = 0; c < jb; ++c) w[c] = bk[c];
      const T w0 = w[0], w1 = w[1], w2 = w[2], w3 = w[3];
      T* BSR_RESTRICT s0 = acc.data();
      T* BSR_RESTRICT s1 = s0 + n;
      T* BSR_RESTRICT s2 = s1 + n;
      T* BSR_RESTRICT s3 = s2 + n;
      for (idx i = 0; i < rows; ++i) {
        const T x = bk[i];
        s0[i] += x * w0;
        s1[i] += x * w1;
        s2[i] += x * w2;
        s3[i] += x * w3;
      }
    }
    for (idx c = 0; c < jb; ++c) {
      const idx j = j0 + c;
      for (idx i = j; i < n; ++i) {
        T s = acc(i - j0, c);
        if (i == j) s += static_cast<T>(n);
        a(i, j) = s;
        a(j, i) = s;
      }
    }
  }
}

template void fill_spd<float>(MatrixView<float>, Rng&);
template void fill_spd<double>(MatrixView<double>, Rng&);

}  // namespace bsr::la
