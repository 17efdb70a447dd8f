#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sparsenn {

Matrix Matrix::randn(std::size_t rows, std::size_t cols, float stddev,
                     Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_)
    v = static_cast<float>(rng.normal(0.0, stddev));
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (float v : data_) acc += double{v} * double{v};
  return std::sqrt(acc);
}

Vector matvec(const Matrix& a, std::span<const float> x) {
  expects(a.cols() == x.size(), "matvec dimension mismatch");
  Vector y(a.rows(), 0.0f);
  const std::size_t n = a.cols();
  std::size_t r = 0;
  // Four rows per pass: four independent accumulator chains instead of
  // one add-latency-bound chain. Each row still sums its products in
  // ascending column order, so every output is bit-identical to the
  // one-row loop below.
  for (; r + 4 <= a.rows(); r += 4) {
    const float* r0 = a.row(r).data();
    const float* r1 = r0 + n;
    const float* r2 = r1 + n;
    const float* r3 = r2 + n;
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double xc = x[c];
      acc0 += double{r0[c]} * xc;
      acc1 += double{r1[c]} * xc;
      acc2 += double{r2[c]} * xc;
      acc3 += double{r3[c]} * xc;
    }
    y[r] = static_cast<float>(acc0);
    y[r + 1] = static_cast<float>(acc1);
    y[r + 2] = static_cast<float>(acc2);
    y[r + 3] = static_cast<float>(acc3);
  }
  for (; r < a.rows(); ++r) {
    const auto row = a.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c)
      acc += double{row[c]} * double{x[c]};
    y[r] = static_cast<float>(acc);
  }
  return y;
}

namespace {

/// Samples per matvec_rows panel.
constexpr std::size_t kPanel = 8;

/// Row-pair pass of matvec_rows: writes
///   acc0[s] = Σ_c w0[c] · panel[c · kPanel + s]
/// and likewise acc1 for w1, each summed in ascending c. Two weight
/// rows give 2 × kPanel independent accumulator chains (portable loop,
/// auto-vectorised for the baseline ISA).
void row_pair_portable(const float* w0, const float* w1, const double* panel,
                       std::size_t n, double* acc0, double* acc1) {
  // Local sums: acc0/acc1 could alias the panel, which would force a
  // store per product.
  double sum0[kPanel] = {};
  double sum1[kPanel] = {};
  for (std::size_t c = 0; c < n; ++c) {
    const double* x = panel + c * kPanel;
    const double a0 = w0[c];
    const double a1 = w1[c];
    for (std::size_t s = 0; s < kPanel; ++s) {
      sum0[s] += a0 * x[s];
      sum1[s] += a1 * x[s];
    }
  }
  std::copy_n(sum0, kPanel, acc0);
  std::copy_n(sum1, kPanel, acc1);
}

#if defined(__x86_64__) || defined(__i386__)
/// The same pass four doubles per instruction. target("avx2") alone
/// enables no FMA, so every lane multiplies, rounds and adds exactly
/// as the portable loop does.
__attribute__((target("avx2"))) void row_pair_avx2(
    const float* w0, const float* w1, const double* panel, std::size_t n,
    double* acc0, double* acc1) {
  static_assert(kPanel == 8, "two __m256d lanes per panel column");
  __m256d lo0 = _mm256_setzero_pd();
  __m256d hi0 = _mm256_setzero_pd();
  __m256d lo1 = _mm256_setzero_pd();
  __m256d hi1 = _mm256_setzero_pd();
  for (std::size_t c = 0; c < n; ++c) {
    const __m256d xlo = _mm256_loadu_pd(panel + c * kPanel);
    const __m256d xhi = _mm256_loadu_pd(panel + c * kPanel + 4);
    const __m256d a0 = _mm256_set1_pd(w0[c]);
    const __m256d a1 = _mm256_set1_pd(w1[c]);
    lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(a0, xlo));
    hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(a0, xhi));
    lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(a1, xlo));
    hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(a1, xhi));
  }
  _mm256_storeu_pd(acc0, lo0);
  _mm256_storeu_pd(acc0 + 4, hi0);
  _mm256_storeu_pd(acc1, lo1);
  _mm256_storeu_pd(acc1 + 4, hi1);
}
#endif

}  // namespace

Matrix matvec_rows(const Matrix& a, const Matrix& xs) {
  expects(a.cols() == xs.cols(), "matvec_rows dimension mismatch");
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  Matrix y(xs.rows(), m);
  // The AVX2 build whenever the kernel table dispatches to AVX2, so
  // SPARSENN_FORCE_SCALAR also selects the portable loop here.
  auto* row_pair = &row_pair_portable;
#if defined(__x86_64__) || defined(__i386__)
  if (active_simd_isa() == SimdIsa::kAvx2) row_pair = &row_pair_avx2;
#endif
  // Up to kPanel samples, widened once into a column-major panel:
  // column c of every sample sits in one contiguous run of kPanel
  // doubles, so one weight multiplies all of them. Lanes past the last
  // sample of a short panel keep stale values; they are computed but
  // never stored.
  std::vector<double> panel(n * kPanel);
  for (std::size_t s0 = 0; s0 < xs.rows(); s0 += kPanel) {
    const std::size_t k = std::min(kPanel, xs.rows() - s0);
    for (std::size_t s = 0; s < k; ++s) {
      const float* x = xs.row(s0 + s).data();
      for (std::size_t c = 0; c < n; ++c) panel[c * kPanel + s] = x[c];
    }
    // Every (row, sample) output sums its exact double products in
    // ascending column order, as matvec does. An odd last row runs as
    // a pair with itself.
    for (std::size_t r = 0; r < m; r += 2) {
      const std::size_t r1 = std::min(r + 1, m - 1);
      double acc0[kPanel];
      double acc1[kPanel];
      row_pair(a.row(r).data(), a.row(r1).data(), panel.data(), n, acc0,
               acc1);
      for (std::size_t s = 0; s < k; ++s) {
        y(s0 + s, r) = static_cast<float>(acc0[s]);
        y(s0 + s, r1) = static_cast<float>(acc1[s]);
      }
    }
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, std::span<const float> x) {
  expects(a.rows() == x.size(), "matvec_transposed dimension mismatch");
  Vector y(a.cols(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;  // input sparsity shortcut, same as hardware
    const auto row = a.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  expects(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix c(a.rows(), b.cols());
  constexpr std::size_t kBlock = 64;
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, a.rows());
    for (std::size_t k0 = 0; k0 < a.cols(); k0 += kBlock) {
      const std::size_t k1 = std::min(k0 + kBlock, a.cols());
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t k = k0; k < k1; ++k) {
          const float aik = a(i, k);
          if (aik == 0.0f) continue;
          const auto brow = b.row(k);
          auto crow = c.row(i);
          for (std::size_t j = 0; j < brow.size(); ++j)
            crow[j] += aik * brow[j];
        }
      }
    }
  }
  return c;
}

double dot(std::span<const float> x, std::span<const float> y) {
  expects(x.size() == y.size(), "dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    acc += double{x[i]} * double{y[i]};
  return acc;
}

double norm2(std::span<const float> x) noexcept {
  double acc = 0.0;
  for (float v : x) acc += double{v} * double{v};
  return std::sqrt(acc);
}

}  // namespace sparsenn
