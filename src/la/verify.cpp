#include <algorithm>
#include <cmath>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"
#include "la/rank_update.hpp"
#include "la/verify.hpp"

namespace bsr::la {

namespace {

// ---- Triangular products ----------------------------------------------------
//
// Each residual multiplies two factors held in packed storage. The products
// below give every element exactly the operations of copying the factors
// into zero-filled matrices and calling gemm: C(i, j) starts at +0, then
// for k ascending with B(k, j) != 0 it adds B(k, j) * A(i, k), one rounded
// multiply-add each. They read the packed factor in place and drop only
// the terms whose A(i, k) is a structural zero of such a copy. For finite
// w, w * (+0) is +-0, and adding +-0 to a sum that starts at +0 changes
// nothing: such a sum is never -0. For non-finite w the term is NaN, so
// for a non-finite weight those terms are added explicitly, in place.

/// The left operand, read in place: column k is a.col(k), except that with
/// `lower` its rows above k are structural zeros (never read) and with
/// `unit` its row k is an implicit 1.
template <typename T>
struct Left {
  ConstMatrixView<T> a;
  bool lower = false;
  bool unit = false;
};

/// The right operand: B(k, j) is b(k, j), or b(j, k) when `trans`. Only
/// k <= min(j, kdim - 1) is read; the rest is a structural zero that gemm
/// skips.
template <typename T>
struct Right {
  ConstMatrixView<T> b;
  bool trans = false;
  idx kdim = 0;
};

/// Terms are gathered a panel of k at a time, so that their lists live on
/// the stack, as gemm's do.
constexpr idx kPanel = 256;

/// One output column: rows [lo, m) of r, and the terms gemm keeps for it in
/// the current panel, B(k, j) != 0 in ascending k.
template <typename T>
struct Column {
  T* r = nullptr;
  idx lo = 0;
  idx n = 0;
  idx k[kPanel];
  T w[kPanel];
};

/// Gathers column j's terms with k in [k0, k0 + kPanel).
template <typename T>
void gather(const Right<T>& b, idx j, idx k0, Column<T>& c) {
  c.n = 0;
  const idx last = std::min({j, b.kdim - 1, k0 + kPanel - 1});
  for (idx k = k0; k <= last; ++k) {
    const T w = b.trans ? b.b(j, k) : b.b(k, j);
    if (w == T(0)) continue;
    c.k[c.n] = k;
    c.w[c.n] = w;
    ++c.n;
  }
}

/// The first row of column c that term k reaches.
template <typename T>
idx first_row(const Left<T>& a, const Column<T>& c, idx k) {
  return a.lower ? std::max(c.lo, k) : c.lo;
}

/// The row past which every term up to k reads A in place.
template <typename T>
idx plain_from(const Left<T>& a, const Column<T>& c, idx k) {
  const idx f = first_row(a, c, k);
  return a.unit && f == k ? f + 1 : f;
}

/// Whether terms [p, p + cnt) may skip their structural terms: A has none,
/// or every weight is finite.
template <typename T>
bool skips_structural(const Left<T>& a, const Column<T>& c, idx p, idx cnt) {
  if (!a.lower) return true;
  for (idx t = p; t < p + cnt; ++t) {
    if (!std::isfinite(c.w[t])) return false;
  }
  return true;
}

/// r[i] += w * A(i, k) for rows [from, to).
template <typename T>
void term_rows(const Left<T>& a, idx k, T w, T* r, idx from, idx to) {
  if (from >= to) return;
  if (a.unit && from == k) {
    r[from] += w * T(1);
    ++from;
  }
  const T* ak = a.a.col(k);
  for (idx i = from; i < to; ++i) r[i] += w * ak[i];
}

/// Terms [p, p + cnt) of one column, cnt <= 4.
template <typename T>
void apply_group(const Left<T>& a, const Column<T>& c, idx p, idx cnt, idx m) {
  if (!skips_structural(a, c, p, cnt)) {
    // The dense order, structural terms included: row i takes term t at
    // position t, as a real term at or below k and as w * (+0) above it.
    for (idx t = p; t < p + cnt; ++t) {
      const idx k = c.k[t];
      const T w = c.w[t];
      const idx f = first_row(a, c, k);
      if (!std::isfinite(w)) {
        for (idx i = c.lo; i < f; ++i) c.r[i] += w * T(0);
      }
      term_rows(a, k, w, c.r, f, m);
    }
    return;
  }
  // Each term's head rows one term at a time, then the rest in one pass.
  const idx head_end = plain_from(a, c, c.k[p + cnt - 1]);
  const T* acol[4];
  for (idx t = 0; t < cnt; ++t) {
    const idx k = c.k[p + t];
    term_rows(a, k, c.w[p + t], c.r, first_row(a, c, k), head_end);
    acol[t] = a.a.col(k) + head_end;
  }
  apply_compacted(m - head_end, c.r + head_end, acol, c.w + p, cnt);
}

/// Terms [p, p + 4) of two columns with the same k: one pass over A for
/// both below their heads.
template <typename T>
void apply_pair(const Left<T>& a, const Column<T>* c, idx p, idx m) {
  const idx klast = c[0].k[p + 3];
  const idx head_end =
      std::max(plain_from(a, c[0], klast), plain_from(a, c[1], klast));
  for (idx q = 0; q < 2; ++q) {
    for (idx t = p; t < p + 4; ++t) {
      term_rows(a, c[q].k[t], c[q].w[t], c[q].r, first_row(a, c[q], c[q].k[t]),
                head_end);
    }
  }
  rank4_pair(m - head_end, c[0].r + head_end, c[1].r + head_end,
             a.a.col(c[0].k[p]) + head_end, a.a.col(c[0].k[p + 1]) + head_end,
             a.a.col(c[0].k[p + 2]) + head_end,
             a.a.col(c[0].k[p + 3]) + head_end, c[0].w + p, c[1].w + p);
}

/// Columns [j0, j1) of C = A * B, rows [j, m) only of column j when
/// `lower_out`. Two columns share each pass over A while their next four
/// terms have the same k.
template <typename T>
void product_cols(const Left<T>& a, const Right<T>& b, bool lower_out,
                  MatrixView<T> out, idx j0, idx j1) {
  const idx m = out.rows();
  Column<T> c[2];
  for (idx j = j0; j < j1; j += 2) {
    const idx width = std::min<idx>(2, j1 - j);
    for (idx q = 0; q < width; ++q) {
      c[q].r = out.col(j + q);
      c[q].lo = lower_out ? j + q : 0;
      std::fill(c[q].r + c[q].lo, c[q].r + m, T(0));
    }
    const idx kend = std::min(j + width, b.kdim);
    for (idx k0 = 0; k0 < kend; k0 += kPanel) {
      for (idx q = 0; q < width; ++q) gather(b, j + q, k0, c[q]);
      idx p = 0;
      if (width == 2) {
        for (; p + 4 <= std::min(c[0].n, c[1].n); p += 4) {
          if (std::equal(c[0].k + p, c[0].k + p + 4, c[1].k + p) &&
              skips_structural(a, c[0], p, 4) &&
              skips_structural(a, c[1], p, 4)) {
            apply_pair(a, c, p, m);
          } else {
            apply_group(a, c[0], p, 4, m);
            apply_group(a, c[1], p, 4, m);
          }
        }
      }
      for (idx q = 0; q < width; ++q) {
        for (idx t = p; t < c[q].n; t += 4) {
          apply_group(a, c[q], t, std::min<idx>(4, c[q].n - t), m);
        }
      }
    }
  }
}

/// C = A * B over all of C's columns, in column chunks on the shared pool
/// as gemm runs them; every element's operations are the same at any pool
/// width.
template <typename T>
void product(const Left<T>& a, const Right<T>& b, bool lower_out,
             MatrixView<T> out) {
  const idx m = out.rows();
  const idx n = out.cols();
  if (n == 0) return;
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(b.kdim);
  if (flops < 1e6 || n == 1) {
    product_cols(a, b, lower_out, out, 0, n);
    return;
  }
  auto& pool = ThreadPool::shared();
  const idx chunk = std::max<idx>(1, n / static_cast<idx>(pool.size() * 4));
  const auto nchunks = static_cast<std::size_t>((n + chunk - 1) / chunk);
  pool.parallel_for(nchunks, [&](std::size_t ci) {
    const idx j0 = static_cast<idx>(ci) * chunk;
    product_cols(a, b, lower_out, out, j0, std::min(j0 + chunk, n));
  });
}

/// Uninitialized m x n scratch in `scope`.
template <typename T>
MatrixView<T> scratch_matrix(ArenaScope& scope, idx m, idx n) {
  T* buf = scope.alloc<T>(static_cast<std::size_t>(m) *
                          static_cast<std::size_t>(n));
  return MatrixView<T>(buf, m, n, m);
}

/// ||D||_F / ||original||_F for D(i, j) = diff(i, j), the dense code's
/// `rec -= X` entry in T, summed in column order as norm_fro sums it.
template <typename T, typename Diff>
double relative_residual(idx m, idx n, ConstMatrixView<T> original, Diff diff) {
  double s = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      const double v = static_cast<double>(diff(i, j));
      s += v * v;
    }
  }
  const double num = std::sqrt(s);
  const double denom = norm_fro(original);
  return denom == 0.0 ? num : num / denom;
}

}  // namespace

template <typename T>
double norm_fro(ConstMatrixView<T> a) {
  double s = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      const double v = static_cast<double>(a(i, j));
      s += v * v;
    }
  }
  return std::sqrt(s);
}

template <typename T>
double norm_max(ConstMatrixView<T> a) {
  double m = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      m = std::max(m, std::abs(static_cast<double>(a(i, j))));
    }
  }
  return m;
}

template <typename T>
double cholesky_residual(ConstMatrixView<T> original, ConstMatrixView<T> factored) {
  const idx n = original.rows();
  // With every lower entry finite, L L^T is symmetric bit for bit (each
  // pair of mirrored sums adds the same nonzero products in the same
  // order), so only its lower triangle is formed. Otherwise the structural
  // terms can differ between the triangles and both are formed.
  bool finite = true;
  for (idx j = 0; j < n && finite; ++j) {
    for (idx i = j; i < n && finite; ++i) {
      finite = std::isfinite(factored(i, j));
    }
  }
  ArenaScope scope(Arena::scratch());
  const MatrixView<T> rec = scratch_matrix<T>(scope, n, n);
  product(Left<T>{factored, true, false}, Right<T>{factored, true, n}, finite,
          rec);
  return relative_residual(n, n, original, [&](idx i, idx j) {
    const T p = finite && i < j ? rec(j, i) : rec(i, j);
    return p - original(i, j);
  });
}

template <typename T>
double lu_residual(ConstMatrixView<T> original, ConstMatrixView<T> factored,
                   const std::vector<idx>& ipiv) {
  const idx m = original.rows();
  const idx n = original.cols();
  const idx k = std::min(m, n);
  ArenaScope scope(Arena::scratch());
  // Row i of P*A is row perm[i] of A: laswp's interchanges applied to the
  // row numbers. Allocated before the product buffer: after it, it would
  // spill into a new, larger arena chunk.
  idx* perm = scope.alloc<idx>(static_cast<std::size_t>(m));
  for (idx i = 0; i < m; ++i) perm[i] = i;
  for (idx kk = 0; kk < static_cast<idx>(ipiv.size()); ++kk) {
    std::swap(perm[kk], perm[ipiv[kk]]);
  }
  const MatrixView<T> rec = scratch_matrix<T>(scope, m, n);
  product(Left<T>{factored, true, true}, Right<T>{factored, false, k}, false,
          rec);
  return relative_residual(m, n, original, [&](idx i, idx j) {
    return rec(i, j) - original(perm[i], j);
  });
}

template <typename T>
double qr_residual(ConstMatrixView<T> original, ConstMatrixView<T> factored,
                   const std::vector<T>& tau) {
  const idx m = original.rows();
  const idx n = original.cols();
  const idx k = std::min(m, n);
  const Matrix<T> q = form_q(factored, tau);
  ArenaScope scope(Arena::scratch());
  const MatrixView<T> rec = scratch_matrix<T>(scope, m, n);
  product(Left<T>{q.view(), false, false}, Right<T>{factored, false, k}, false,
          rec);
  return relative_residual(m, n, original, [&](idx i, idx j) {
    return rec(i, j) - original(i, j);
  });
}

template <typename T>
double orthogonality_error(ConstMatrixView<T> q) {
  const idx m = q.cols();
  Matrix<T> qtq(m, m);
  gemm(Op::Trans, Op::NoTrans, T(1), q, q, T(0), qtq.view());
  for (idx i = 0; i < m; ++i) qtq(i, i) -= T(1);
  return norm_fro(qtq.view().as_const());
}

#define BSR_LA_INSTANTIATE(T)                                              \
  template double norm_fro<T>(ConstMatrixView<T>);                         \
  template double norm_max<T>(ConstMatrixView<T>);                         \
  template double cholesky_residual<T>(ConstMatrixView<T>,                 \
                                       ConstMatrixView<T>);                \
  template double lu_residual<T>(ConstMatrixView<T>, ConstMatrixView<T>,   \
                                 const std::vector<idx>&);                 \
  template double qr_residual<T>(ConstMatrixView<T>, ConstMatrixView<T>,   \
                                 const std::vector<T>&);                   \
  template double orthogonality_error<T>(ConstMatrixView<T>);

BSR_LA_INSTANTIATE(float)
BSR_LA_INSTANTIATE(double)
#undef BSR_LA_INSTANTIATE

}  // namespace bsr::la
