// The restructured la loops against the loops they replaced, bit for bit.
//
// fill_spd, larf_left, form_q and laswp were rewritten for speed under the
// prime directive of docs/PERFORMANCE.md: every output element sees the same
// floating-point operations in the same order. The reference loops below are
// the straightforward versions they replaced. Every comparison is a memcmp
// over the whole parent allocation, so a reassociated sum, a flipped signed
// zero or a write outside the view fails.
//
// The last test pins the serialized RunReport (residual included) of six
// numeric solves, which run all four kernels end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bsr/bsr.hpp"
#include "la/lapack.hpp"
#include "serve/report_json.hpp"

namespace bsr::la {
namespace {

// ---- Reference loops ------------------------------------------------------

template <typename T>
void ref_fill_spd(MatrixView<T> a, Rng& rng) {
  const idx n = a.rows();
  Matrix<T> b(n, n);
  fill_random(b.view(), rng);
  for (idx j = 0; j < n; ++j) {
    for (idx i = j; i < n; ++i) {
      T s = 0;
      for (idx k = 0; k < n; ++k) s += b(i, k) * b(j, k);
      if (i == j) s += static_cast<T>(n);
      a(i, j) = s;
      a(j, i) = s;
    }
  }
}

// Two passes: all the dots, then all the axpys.
template <typename T>
void ref_larf_left(const T* v, T tau, MatrixView<T> c) {
  if (tau == T(0)) return;
  const idx m = c.rows();
  const idx n = c.cols();
  std::vector<T> work(static_cast<std::size_t>(n));
  for (idx j = 0; j < n; ++j) {
    T s = 0;
    for (idx i = 0; i < m; ++i) s += c(i, j) * v[i];
    work[j] = s;
  }
  for (idx j = 0; j < n; ++j) {
    const T alpha = -tau * work[j];
    for (idx i = 0; i < m; ++i) c(i, j) += alpha * v[i];
  }
}

// H_j applied to every column of rows j:, zero columns included.
template <typename T>
Matrix<T> ref_form_q(ConstMatrixView<T> qr, const std::vector<T>& tau) {
  const idx m = qr.rows();
  const idx k = static_cast<idx>(tau.size());
  Matrix<T> q(m, m);
  fill_identity(q.view());
  std::vector<T> v(static_cast<std::size_t>(m));
  for (idx j = k - 1; j >= 0; --j) {
    v[0] = T(1);
    for (idx i = 1; i < m - j; ++i) v[i] = qr(j + i, j);
    ref_larf_left(v.data(), tau[j], q.block(j, 0, m - j, m));
  }
  return q;
}

// One row interchange at a time, across every column.
template <typename T>
void ref_laswp(MatrixView<T> a, const std::vector<idx>& ipiv, idx k0, idx k1) {
  for (idx kk = k0; kk < k1; ++kk) {
    const idx p = ipiv[kk];
    if (p == kk) continue;
    for (idx j = 0; j < a.cols(); ++j) std::swap(a(kk, j), a(p, j));
  }
}

// ---- Helpers ----------------------------------------------------------------

constexpr idx kSizes[] = {1, 2, 3, 5, 31, 64, 130};

template <typename T>
bool same_bytes(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows() * a.cols())) == 0;
}

/// An (r + 3) x (c + 2) random parent; tests work on its r x c block at
/// (2, 1), so the view's ld exceeds its rows and the border must survive.
template <typename T>
Matrix<T> padded(idx r, idx c, std::uint64_t seed) {
  Matrix<T> m(r + 3, c + 2);
  Rng rng(seed);
  fill_random(m.view(), rng);
  return m;
}

template <typename T>
MatrixView<T> inner(Matrix<T>& m) {
  return m.block(2, 1, m.rows() - 3, m.cols() - 2);
}

/// A reflector as geqr2 builds it: explicit leading 1, entries below.
template <typename T>
std::vector<T> reflector(idx m, std::uint64_t seed) {
  std::vector<T> v(static_cast<std::size_t>(m));
  Rng rng(seed);
  v[0] = T(1);
  for (idx i = 1; i < m; ++i) v[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

template <typename T>
class KernelEquivalence : public ::testing::Test {};

using ElementTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(KernelEquivalence, ElementTypes);

// ---- Kernels ----------------------------------------------------------------

TYPED_TEST(KernelEquivalence, FillSpd) {
  using T = TypeParam;
  for (const idx n : kSizes) {
    Matrix<T> want = padded<T>(n, n, 1);
    Matrix<T> got = want;
    Rng r1(100 + static_cast<std::uint64_t>(n));
    Rng r2(100 + static_cast<std::uint64_t>(n));
    ref_fill_spd(inner(want), r1);
    fill_spd(inner(got), r2);
    EXPECT_TRUE(same_bytes(want, got)) << "n=" << n;
    // Both consumed the same random stream.
    EXPECT_EQ(r1.next_u64(), r2.next_u64()) << "n=" << n;
  }
}

TYPED_TEST(KernelEquivalence, LarfLeft) {
  using T = TypeParam;
  for (const idx m : kSizes) {
    const std::vector<T> v = reflector<T>(m, 7 + static_cast<std::uint64_t>(m));
    for (const idx n : kSizes) {
      for (const T tau : {T(0), T(1.25), static_cast<T>(1.9140625)}) {
        Matrix<T> want = padded<T>(m, n, static_cast<std::uint64_t>(m * 1000 + n));
        // A +0.0 and a -0.0 column: the dot and axpy must treat both alike.
        if (n > 2) {
          for (idx i = 0; i < m; ++i) {
            inner(want)(i, 1) = T(0);
            inner(want)(i, 2) = -T(0);
          }
        }
        Matrix<T> got = want;
        ref_larf_left(v.data(), tau, inner(want));
        larf_left(v.data(), tau, inner(got));
        EXPECT_TRUE(same_bytes(want, got))
            << "m=" << m << " n=" << n << " tau=" << tau;
      }
    }
  }
}

TYPED_TEST(KernelEquivalence, FormQ) {
  using T = TypeParam;
  for (const idx m : kSizes) {
    // Square, and k < m reflectors from a tall panel.
    for (const idx k : {m, (m + 1) / 2}) {
      Matrix<T> a = padded<T>(m, k, static_cast<std::uint64_t>(m * 31 + k));
      std::vector<T> tau;
      geqrf(inner(a), 4, tau);
      for (const bool zero_taus : {false, true}) {
        if (zero_taus) {
          // tau = 0 reflectors are identities and must be skipped alike.
          for (std::size_t j = 0; j < tau.size(); j += 3) tau[j] = T(0);
        }
        const ConstMatrixView<T> qr = inner(a).as_const();
        const Matrix<T> want = ref_form_q(qr, tau);
        const Matrix<T> got = form_q(qr, tau);
        EXPECT_TRUE(same_bytes(want, got))
            << "m=" << m << " k=" << k << " zero_taus=" << zero_taus;
      }
    }
  }
}

TYPED_TEST(KernelEquivalence, Laswp) {
  using T = TypeParam;
  for (const idx m : kSizes) {
    for (const idx n : kSizes) {
      std::vector<idx> identity(static_cast<std::size_t>(m));
      std::vector<idx> forward(static_cast<std::size_t>(m));
      std::vector<idx> repeated(static_cast<std::size_t>(m));
      Rng rng(static_cast<std::uint64_t>(m * 7 + n));
      for (idx kk = 0; kk < m; ++kk) {
        identity[kk] = kk;
        // getf2's kind: a row at or below kk.
        forward[kk] = kk + static_cast<idx>(rng.next_below(
                               static_cast<std::uint64_t>(m - kk)));
        // Arbitrary and repeating: rows swapped back and forth.
        repeated[kk] = (kk * 5) % std::max<idx>(1, m / 2);
      }
      for (const auto* ipiv : {&identity, &forward, &repeated}) {
        for (const auto& [k0, k1] : {std::pair<idx, idx>{0, m},
                                    std::pair<idx, idx>{m / 3, m - m / 3}}) {
          Matrix<T> want = padded<T>(m, n, static_cast<std::uint64_t>(m + 17 * n));
          Matrix<T> got = want;
          ref_laswp(inner(want), *ipiv, k0, k1);
          laswp(inner(got), *ipiv, k0, k1);
          EXPECT_TRUE(same_bytes(want, got))
              << "m=" << m << " n=" << n << " k0=" << k0 << " k1=" << k1;
        }
      }
    }
  }
}

// ---- Whole numeric solves -----------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

struct Pinned {
  std::size_t bytes;
  std::uint64_t hash;
  double residual;
};

// The benchmark's six numeric configurations ({LU, QR, Cholesky} x
// {adaptive ABFT at error rate x150, no ABFT at rate 0}) at n = 96. The
// serialized reports were recorded before the kernels were restructured.
// The residual, which carries the last bits of every kernel and which the
// benchmark's digest clears, is also compared on its own.
TEST(KernelEquivalenceReports, NumericReportsArePinned) {
  const Factorization facts[] = {Factorization::LU, Factorization::QR,
                                 Factorization::Cholesky};
  const Pinned pinned[] = {
      {2786u, 0x954bf6a883fcb966ull, 0x1.a5f2c88dc41c1p-51},  // LU, adaptive
      {2787u, 0x4f0e48a046f284bbull, 0x1.9d268dca95079p-51},  // LU, none
      {2836u, 0x5257eb58852ccfefull, 0x1.07eb8c3d051p-50},    // QR, adaptive
      {2845u, 0x064b3c98da348c59ull, 0x1.f166ff94a5823p-51},  // QR, none
      {2816u, 0xa4e8703e323d7efdull, 0x1.1e606f32fc1ddp-52},  // Cholesky, adaptive
      {2819u, 0x0422e4e4a25d6c18ull, 0x1.362e77a02734ap-52},  // Cholesky, none
  };
  std::size_t index = 0;
  for (const Factorization f : facts) {
    for (const bool protect : {true, false}) {
      RunConfig c;
      c.factorization = f;
      c.n = 96;
      c.b = 32;
      c.strategy = "bsr";
      c.reclamation_ratio = 0.25;
      c.fc_desired = 0.999;
      c.platform = "numeric_demo";
      c.mode = ExecutionMode::Numeric;
      c.abft_policy = protect ? "adaptive" : "none";
      c.error_rate_multiplier = protect ? 150.0 : 0.0;
      c.seed = derive_cell_seed(1, index);
      const RunReport r = run(c);
      const std::string bytes = serve::serialize_report(r);
      const Pinned& want = pinned[index];
      EXPECT_EQ(std::memcmp(&r.residual, &want.residual, sizeof(double)), 0)
          << "config " << index << ": residual " << r.residual << " vs "
          << want.residual;
      EXPECT_EQ(bytes.size(), want.bytes) << "config " << index;
      EXPECT_EQ(fnv1a(bytes), want.hash) << "config " << index;
      ++index;
    }
  }
}

}  // namespace
}  // namespace bsr::la
