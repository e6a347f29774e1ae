// From-scratch one-sided factorization kernels (LAPACK-style).
//
// These are the numeric building blocks the heterogeneous pipeline schedules:
// panel factorizations (potf2 / getf2 / geqr2 and their blocked drivers) plus
// the block-reflector machinery for QR. Conventions follow LAPACK: column
// major, L has unit diagonal stored implicitly for LU, tau/V compact storage
// for QR, 0-based pivot indices.
#pragma once

#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace bsr::la {

// ---- Cholesky (lower) ------------------------------------------------------

/// Unblocked lower Cholesky of a square block in place.
/// Returns 0 on success, or 1-based index of the first non-positive pivot.
template <typename T>
idx potf2(MatrixView<T> a);

/// Blocked right-looking lower Cholesky in place with block size nb.
template <typename T>
idx potrf(MatrixView<T> a, idx nb);

// ---- LU with partial pivoting ----------------------------------------------

/// Unblocked LU of an m x n panel with partial pivoting. ipiv[k] is the
/// 0-based row swapped with row k. Returns 0 or 1-based index of a zero pivot.
template <typename T>
idx getf2(MatrixView<T> a, std::vector<idx>& ipiv);

/// Applies row interchanges ipiv[k0..k1) to all columns of a.
template <typename T>
void laswp(MatrixView<T> a, const std::vector<idx>& ipiv, idx k0, idx k1);

/// Blocked LU with partial pivoting in place; ipiv resized to min(m, n).
template <typename T>
idx getrf(MatrixView<T> a, idx nb, std::vector<idx>& ipiv);

// ---- QR (Householder, compact WY) -------------------------------------------

/// Generates an elementary reflector H = I - tau v v^T zeroing x below alpha.
/// On exit alpha holds beta, x holds v(1:), tau the scalar factor.
template <typename T>
void larfg(idx n, T& alpha, T* x, idx incx, T& tau);

/// Applies H = I - tau v v^T from the left to c (v has implicit leading 1).
/// v must not overlap c.
template <typename T>
void larf_left(const T* v, T tau, MatrixView<T> c);

/// Unblocked QR of an m x n panel; tau resized to min(m, n).
template <typename T>
idx geqr2(MatrixView<T> a, std::vector<T>& tau);

/// Forms the upper-triangular block-reflector factor T (forward, columnwise)
/// from the k reflectors stored in v (m x k) and tau.
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t);

/// Applies (I - V T V^T)^T from the left to c (trailing-matrix update for QR):
/// c := c - V T^T (V^T c). V is m x k unit-lower-trapezoidal.
template <typename T>
void larfb_left_trans(ConstMatrixView<T> v, ConstMatrixView<T> t, MatrixView<T> c);

/// Blocked Householder QR in place with block size nb; tau resized to min(m,n).
template <typename T>
idx geqrf(MatrixView<T> a, idx nb, std::vector<T>& tau);

/// Explicitly forms the m x m orthogonal Q from a geqrf-factored matrix.
template <typename T>
Matrix<T> form_q(ConstMatrixView<T> qr, const std::vector<T>& tau);

// Explicit instantiation declarations ----------------------------------------

#define BSR_LA_DECLARE_LAPACK(T)                                                     \
  extern template idx potf2<T>(MatrixView<T>);                                       \
  extern template idx potrf<T>(MatrixView<T>, idx);                                  \
  extern template idx getf2<T>(MatrixView<T>, std::vector<idx>&);                    \
  extern template void laswp<T>(MatrixView<T>, const std::vector<idx>&, idx, idx);   \
  extern template idx getrf<T>(MatrixView<T>, idx, std::vector<idx>&);               \
  extern template void larfg<T>(idx, T&, T*, idx, T&);                               \
  extern template void larf_left<T>(const T*, T, MatrixView<T>);                     \
  extern template idx geqr2<T>(MatrixView<T>, std::vector<T>&);                      \
  extern template void larft<T>(ConstMatrixView<T>, const T*, MatrixView<T>);        \
  extern template void larfb_left_trans<T>(ConstMatrixView<T>, ConstMatrixView<T>,   \
                                           MatrixView<T>);                           \
  extern template idx geqrf<T>(MatrixView<T>, idx, std::vector<T>&);                 \
  extern template Matrix<T> form_q<T>(ConstMatrixView<T>, const std::vector<T>&);

BSR_LA_DECLARE_LAPACK(float)
BSR_LA_DECLARE_LAPACK(double)
#undef BSR_LA_DECLARE_LAPACK

}  // namespace bsr::la
