// Residual-based verification of factorization results.
//
// Used by tests and by the numeric-mode decomposition driver to decide whether
// a fault-injected run produced a numerically correct factorization.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace bsr::la {

template <typename T>
double norm_fro(ConstMatrixView<T> a);

template <typename T>
double norm_max(ConstMatrixView<T> a);

// The three residuals read `factored` in place, and give every entry the
// floating-point operations of copying the factors into zero-filled
// matrices, multiplying them with gemm and taking norm_fro of the
// difference, so they return its bits, non-finite factors included.

/// ||A - L L^T||_F / ||A||_F where `factored` holds L in its lower triangle,
/// diagonal included. The upper triangle is never read.
template <typename T>
double cholesky_residual(ConstMatrixView<T> original, ConstMatrixView<T> factored);

/// ||P A - L U||_F / ||A||_F from the packed getrf output and pivots: L's
/// unit diagonal is implicit, so `factored` is read below its diagonal, in
/// its first min(m, n) columns, for L, and at and above it, in its first
/// min(m, n) rows, for U.
template <typename T>
double lu_residual(ConstMatrixView<T> original, ConstMatrixView<T> factored,
                   const std::vector<idx>& ipiv);

/// ||A - Q R||_F / ||A||_F from the packed geqrf output and tau: `factored`
/// is read below its diagonal in its first tau.size() columns for the
/// reflectors (form_q), and at and above it, in its first min(m, n) rows,
/// for R.
template <typename T>
double qr_residual(ConstMatrixView<T> original, ConstMatrixView<T> factored,
                   const std::vector<T>& tau);

/// ||Q^T Q - I||_F for an explicitly formed Q.
template <typename T>
double orthogonality_error(ConstMatrixView<T> q);

#define BSR_LA_DECLARE_VERIFY(T)                                                  \
  extern template double norm_fro<T>(ConstMatrixView<T>);                         \
  extern template double norm_max<T>(ConstMatrixView<T>);                         \
  extern template double cholesky_residual<T>(ConstMatrixView<T>,                 \
                                              ConstMatrixView<T>);                \
  extern template double lu_residual<T>(ConstMatrixView<T>, ConstMatrixView<T>,   \
                                        const std::vector<idx>&);                 \
  extern template double qr_residual<T>(ConstMatrixView<T>, ConstMatrixView<T>,   \
                                        const std::vector<T>&);                   \
  extern template double orthogonality_error<T>(ConstMatrixView<T>);

BSR_LA_DECLARE_VERIFY(float)
BSR_LA_DECLARE_VERIFY(double)
#undef BSR_LA_DECLARE_VERIFY

}  // namespace bsr::la
