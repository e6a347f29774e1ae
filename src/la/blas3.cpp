#include <algorithm>
#include <vector>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "la/blas.hpp"
#include "la/rank_update.hpp"

namespace bsr::la {

namespace {

// ---- GEMM core ------------------------------------------------------------
//
// C(:, j0:j1) = alpha * A * B(:, j0:j1) + beta * C over a contiguous column
// range, A in NoTrans layout. The reference semantics (which the tuned paths
// below reproduce bitwise) are, per column j:
//
//   1. scale cj by beta (fill with zero when beta == 0);
//   2. for k ascending: skip when b(k,j) == 0, else cj[i] += (alpha*b(k,j)) *
//      a(i,k) for all i, each k a separate rounded multiply-add pass.
//
// Every element of C sees the same FP ops in the same order under any of the
// tilings below, because the k updates for one (i,j) stay in ascending-k
// order and each `s += w * a[i]` statement rounds exactly like a standalone
// rank-1 pass (storing and reloading a double between passes is exact). The
// zero-skip must be preserved — adding a zero term is not a no-op for -0.0
// or non-finite operands.

template <typename T>
void gemm_nn_cols(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, Op opb,
                  T beta, MatrixView<T> c, idx j0, idx j1) {
  const idx m = c.rows();
  const idx kdim = a.cols();
  constexpr idx kKBlock = 256;

  for (idx j = j0; j < j1; ++j) {
    T* cj = c.col(j);
    if (beta == T(0)) {
      std::fill(cj, cj + m, T(0));
    } else if (beta != T(1)) {
      for (idx i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (m == 0 || kdim == 0) return;

  // Per-panel scratch (at most kKBlock entries, lives on this stack frame so
  // pool workers never contend).
  T wa[kKBlock];
  T wb[kKBlock];
  const T* acol[kKBlock];

  for (idx k0 = 0; k0 < kdim; k0 += kKBlock) {
    const idx k1 = std::min(k0 + kKBlock, kdim);
    const idx klen = k1 - k0;
    idx j = j0;
    // Column pairs: when every b entry in the panel is nonzero for both
    // columns (the dense common case), both columns touch the identical
    // ascending-k sequence and can share the A loads.
    for (; j + 2 <= j1; j += 2) {
      bool dense = true;
      for (idx k = k0; k < k1; ++k) {
        const T b0 = opb == Op::NoTrans ? b(k, j) : b(j, k);
        const T b1 = opb == Op::NoTrans ? b(k, j + 1) : b(j + 1, k);
        if (b0 == T(0) || b1 == T(0)) {
          dense = false;
          break;
        }
        wa[k - k0] = alpha * b0;
        wb[k - k0] = alpha * b1;
      }
      if (dense) {
        T* c0 = c.col(j);
        T* c1 = c.col(j + 1);
        idx t = 0;
        for (; t + 4 <= klen; t += 4) {
          const idx k = k0 + t;
          rank4_pair(m, c0, c1, a.col(k), a.col(k + 1), a.col(k + 2),
                     a.col(k + 3), wa + t, wb + t);
        }
        for (; t < klen; ++t) {
          acol[0] = a.col(k0 + t);
          apply_compacted(m, c0, acol, wa + t, 1);
          apply_compacted(m, c1, acol, wb + t, 1);
        }
        continue;
      }
      // Sparse panel: fall back to per-column compaction of the nonzeros.
      for (idx jj = j; jj < j + 2; ++jj) {
        idx nnz = 0;
        for (idx k = k0; k < k1; ++k) {
          const T bkj = opb == Op::NoTrans ? b(k, jj) : b(jj, k);
          if (bkj == T(0)) continue;
          wa[nnz] = alpha * bkj;
          acol[nnz] = a.col(k);
          ++nnz;
        }
        apply_compacted(m, c.col(jj), acol, wa, nnz);
      }
    }
    // Odd trailing column.
    for (; j < j1; ++j) {
      idx nnz = 0;
      for (idx k = k0; k < k1; ++k) {
        const T bkj = opb == Op::NoTrans ? b(k, j) : b(j, k);
        if (bkj == T(0)) continue;
        wa[nnz] = alpha * bkj;
        acol[nnz] = a.col(k);
        ++nnz;
      }
      apply_compacted(m, c.col(j), acol, wa, nnz);
    }
  }
}

}  // namespace

template <typename T>
void gemm(Op opa, Op opb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
          T beta, MatrixView<T> c) {
  const idx m = c.rows();
  const idx n = c.cols();
  const idx kdim = opa == Op::NoTrans ? a.cols() : a.rows();
  if (m == 0 || n == 0) return;

  // Resolve a transposed A by packing A^T once into arena scratch (no malloc
  // or zero-fill on the steady state); the core kernel then always streams
  // contiguous columns of A. Cache-blocked copy; copy order does not affect
  // values. The frame outlives the parallel_for below, and workers only read.
  ArenaScope scope(Arena::scratch());
  ConstMatrixView<T> a_nt = a;
  if (opa == Op::Trans) {
    T* at = scope.alloc<T>(static_cast<std::size_t>(m) *
                           static_cast<std::size_t>(kdim));
    constexpr idx kTile = 64;
    for (idx jj = 0; jj < kdim; jj += kTile) {
      const idx jend = std::min(jj + kTile, kdim);
      for (idx ii = 0; ii < m; ii += kTile) {
        const idx iend = std::min(ii + kTile, m);
        for (idx jt = jj; jt < jend; ++jt) {
          for (idx it = ii; it < iend; ++it) at[it + jt * m] = a(jt, it);
        }
      }
    }
    a_nt = ConstMatrixView<T>(at, m, kdim, m);
  }

  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(kdim);
  if (flops < 1e6 || n == 1) {
    gemm_nn_cols(alpha, a_nt, b, opb, beta, c, 0, n);
    return;
  }
  auto& pool = ThreadPool::shared();
  const idx chunk = std::max<idx>(1, n / static_cast<idx>(pool.size() * 4));
  const std::size_t nchunks = static_cast<std::size_t>((n + chunk - 1) / chunk);
  pool.parallel_for(nchunks, [&](std::size_t ci) {
    const idx j0 = static_cast<idx>(ci) * chunk;
    const idx j1 = std::min(j0 + chunk, n);
    gemm_nn_cols(alpha, a_nt, b, opb, beta, c, j0, j1);
  });
}

template <typename T>
void trsm(Side side, Uplo uplo, Op op, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b) {
  const idx m = b.rows();
  const idx n = b.cols();
  const bool unit = diag == Diag::Unit;
  if (m == 0 || n == 0) return;

  if (alpha != T(1)) {
    for (idx j = 0; j < n; ++j) scal(m, alpha, b.col(j), 1);
  }

  if (side == Side::Left) {
    auto solve_cols = [&](idx j0, idx j1) {
      for (idx j = j0; j < j1; ++j) trsv(uplo, op, diag, a, b.col(j));
    };
    // Columns are independent for Side::Left; parallelize when worthwhile.
    const double flops = static_cast<double>(m) * m * n;
    if (flops > 1e6) {
      auto& pool = ThreadPool::shared();
      const idx chunk = std::max<idx>(1, n / static_cast<idx>(pool.size() * 4));
      const auto nchunks = static_cast<std::size_t>((n + chunk - 1) / chunk);
      pool.parallel_for(nchunks, [&](std::size_t ci) {
        const idx j0 = static_cast<idx>(ci) * chunk;
        solve_cols(j0, std::min(j0 + chunk, n));
      });
    } else {
      solve_cols(0, n);
    }
    return;
  }

  // Side::Right: X * op(A) = B, A is n x n. Column-oriented reference loops.
  if (op == Op::NoTrans) {
    if (uplo == Uplo::Upper) {
      // Forward over columns: X(:,j) = (B(:,j) - sum_{k<j} X(:,k) A(k,j)) / A(j,j)
      for (idx j = 0; j < n; ++j) {
        T* bj = b.col(j);
        for (idx k = 0; k < j; ++k) {
          const T akj = a(k, j);
          if (akj != T(0)) axpy(m, -akj, b.col(k), 1, bj, 1);
        }
        if (!unit) scal(m, T(1) / a(j, j), bj, 1);
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        T* bj = b.col(j);
        for (idx k = j + 1; k < n; ++k) {
          const T akj = a(k, j);
          if (akj != T(0)) axpy(m, -akj, b.col(k), 1, bj, 1);
        }
        if (!unit) scal(m, T(1) / a(j, j), bj, 1);
      }
    }
  } else {
    // X * A^T = B.
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        T* bj = b.col(j);
        if (!unit) scal(m, T(1) / a(j, j), bj, 1);
        for (idx k = 0; k < j; ++k) {
          const T ajk = a(k, j);
          if (ajk != T(0)) axpy(m, -ajk, bj, 1, b.col(k), 1);
        }
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        T* bj = b.col(j);
        if (!unit) scal(m, T(1) / a(j, j), bj, 1);
        for (idx k = j + 1; k < n; ++k) {
          const T ajk = a(k, j);
          if (ajk != T(0)) axpy(m, -ajk, bj, 1, b.col(k), 1);
        }
      }
    }
  }
}

template <typename T>
void syrk(Uplo uplo, Op op, T alpha, ConstMatrixView<T> a, T beta,
          MatrixView<T> c) {
  const idx n = c.rows();
  const idx kdim = op == Op::NoTrans ? a.cols() : a.rows();
  if (n == 0) return;
  // Compute the full product into arena scratch via gemm (fast path), then
  // fold the requested triangle into C. The extra flops on the dead triangle
  // are cheaper than a strided dot-product loop at the sizes we use; gemm's
  // beta == 0 path overwrites every element, so the scratch needs no
  // initialization (this is where Matrix's zero-fill used to cost a full
  // n*n memset per blocked-potrf panel).
  ArenaScope scope(Arena::scratch());
  T* buf =
      scope.alloc<T>(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  MatrixView<T> scratch(buf, n, n, n);
  if (op == Op::NoTrans) {
    gemm(Op::NoTrans, Op::Trans, alpha, a, a, T(0), scratch);
  } else {
    gemm(Op::Trans, Op::NoTrans, alpha, a, a, T(0), scratch);
  }
  (void)kdim;
  if (uplo == Uplo::Lower) {
    for (idx j = 0; j < n; ++j) {
      T* BSR_RESTRICT cj = c.col(j) + j;
      const T* BSR_RESTRICT sj = scratch.col(j) + j;
      for (idx i = 0; i < n - j; ++i) cj[i] = beta * cj[i] + sj[i];
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      T* BSR_RESTRICT cj = c.col(j);
      const T* BSR_RESTRICT sj = scratch.col(j);
      for (idx i = 0; i <= j; ++i) cj[i] = beta * cj[i] + sj[i];
    }
  }
}

#define BSR_LA_INSTANTIATE(T)                                                     \
  template void gemm<T>(Op, Op, T, ConstMatrixView<T>, ConstMatrixView<T>, T,     \
                        MatrixView<T>);                                           \
  template void trsm<T>(Side, Uplo, Op, Diag, T, ConstMatrixView<T>,              \
                        MatrixView<T>);                                           \
  template void syrk<T>(Uplo, Op, T, ConstMatrixView<T>, T, MatrixView<T>);

BSR_LA_INSTANTIATE(float)
BSR_LA_INSTANTIATE(double)
#undef BSR_LA_INSTANTIATE

}  // namespace bsr::la
