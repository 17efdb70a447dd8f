// Unit and property tests for src/tensor: dense kernels, the SVD stack
// (Jacobi eigensolver, randomized truncated SVD).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/svd.hpp"

namespace sparsenn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng{seed};
  return Matrix::randn(r, c, 1.0f, rng);
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(3, 4, 2.0f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FLOAT_EQ(m.at(2, 3), 2.0f);
  m.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  EXPECT_THROW(m.at(3, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, 4), std::invalid_argument);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix m = random_matrix(5, 7, 1);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MatvecAgainstManual) {
  Matrix m(2, 2);
  m(0, 0) = 1.0f;
  m(0, 1) = 2.0f;
  m(1, 0) = 3.0f;
  m(1, 1) = 4.0f;
  const Vector y = matvec(m, std::vector<float>{5.0f, 6.0f});
  EXPECT_FLOAT_EQ(y[0], 17.0f);
  EXPECT_FLOAT_EQ(y[1], 39.0f);
  EXPECT_THROW(matvec(m, std::vector<float>{1.0f}),
               std::invalid_argument);
}

// matvec computes several rows per pass, and matvec_rows several rows
// for a panel of up to 8 samples; every output must still be the plain
// one-row double-accumulated dot in ascending column order, bit for
// bit, at every row count around the block sizes and every sample
// count around the panel width (and their tails), and matvec_rows
// must give the same words from its AVX2 build as from its portable
// loop. Each row opens with 1, 2^60, -2^60 against inputs opening with
// 1, 1, 1: summed in order the 1 is absorbed before the big terms
// cancel, so any other column order shows.
TEST(Matrix, MatvecMatchesOneRowReferenceBitForBit) {
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    Matrix m = random_matrix(rows, 37, 10 + rows);
    for (std::size_t r = 0; r < rows; ++r) {
      m(r, 0) = 1.0f;
      m(r, 1) = 0x1p60f;
      m(r, 2) = -0x1p60f;
    }
    const auto reference = [&m](std::span<const float> x, std::size_t r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < x.size(); ++c)
        acc += double{m(r, c)} * double{x[c]};
      return static_cast<float>(acc);
    };
    Rng rng{rows};
    Vector x(37);
    for (float& v : x) v = static_cast<float>(rng.normal());
    x[0] = x[1] = x[2] = 1.0f;
    const Vector y = matvec(m, x);
    ASSERT_EQ(y.size(), rows);
    for (std::size_t r = 0; r < rows; ++r)
      EXPECT_EQ(y[r], reference(x, r)) << "rows " << rows << " row " << r;

    for (const std::size_t samples : {1u, 7u, 8u, 9u, 17u}) {
      Matrix xs = random_matrix(samples, 37, 100 * rows + samples);
      for (std::size_t i = 0; i < samples; ++i)
        xs(i, 0) = xs(i, 1) = xs(i, 2) = 1.0f;
      const Matrix ys = matvec_rows(m, xs);
      ASSERT_EQ(ys.rows(), samples);
      ASSERT_EQ(ys.cols(), rows);
      for (std::size_t i = 0; i < samples; ++i)
        for (std::size_t r = 0; r < rows; ++r)
          EXPECT_EQ(ys(i, r), reference(xs.row(i), r))
              << "rows " << rows << " samples " << samples << " sample "
              << i << " row " << r;

      // The dispatched build (AVX2 where the host has it) and the
      // portable loop the scalar override selects: the same words.
      force_scalar_kernels(true);
      const Matrix portable = matvec_rows(m, xs);
      force_scalar_kernels(false);
      for (std::size_t i = 0; i < ys.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ys.flat()[i]),
                  std::bit_cast<std::uint32_t>(portable.flat()[i]))
            << to_string(active_simd_isa()) << ", rows " << rows
            << " samples " << samples << " word " << i;
    }
  }
  EXPECT_THROW(matvec_rows(Matrix(2, 3), Matrix(4, 2)),
               std::invalid_argument);
}

TEST(Matrix, MatvecTransposedMatchesExplicitTranspose) {
  const Matrix m = random_matrix(9, 13, 2);
  Rng rng{3};
  Vector x(9);
  for (float& v : x) v = static_cast<float>(rng.normal());
  const Vector a = matvec_transposed(m, x);
  const Vector b = matvec(m.transposed(), x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-4);
}

TEST(Matrix, MatmulAgainstNaive) {
  const Matrix a = random_matrix(17, 33, 4);
  const Matrix b = random_matrix(33, 11, 5);
  const Matrix c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); i += 5) {
    for (std::size_t j = 0; j < b.cols(); j += 3) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc += double{a(i, k)} * double{b(k, j)};
      EXPECT_NEAR(c(i, j), acc, 1e-3);
    }
  }
}

TEST(Matrix, MatmulIdentity) {
  const Matrix a = random_matrix(8, 8, 6);
  const Matrix i8 = Matrix::identity(8);
  const Matrix left = matmul(i8, a);
  const Matrix right = matmul(a, i8);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(left(r, c), a(r, c), 1e-6);
      EXPECT_NEAR(right(r, c), a(r, c), 1e-6);
    }
}

TEST(Matrix, DotAndNorm) {
  const std::vector<float> x{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(dot(x, std::vector<float>{1.0f, 1.0f}), 7.0);
}

TEST(Ops, SoftmaxIsDistributionAndStable) {
  const std::vector<float> logits{1000.0f, 1001.0f, 999.0f};
  const Vector p = softmax(logits);
  double total = 0.0;
  for (float v : p) {
    EXPECT_GT(v, 0.0f);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_EQ(argmax(p), 1u);
}

// ---- SVD ----

TEST(Svd, JacobiEigenOnKnownMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a(2, 2, 1.0f);
  a(0, 0) = 2.0f;
  a(1, 1) = 2.0f;
  const EigResult eig = jacobi_eigendecomposition(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-5);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-5);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-4);
}

TEST(Svd, OrthonormalizeColumnsProducesOrthonormal) {
  const Matrix a = random_matrix(20, 6, 7);
  const Matrix q = orthonormalize_columns(a);
  ASSERT_EQ(q.cols(), 6u);
  const Matrix gram = matmul(q.transposed(), q);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-4);
}

TEST(Svd, ExactRecoveryOfLowRankMatrix) {
  // Build an exactly rank-3 matrix and recover it at rank 3.
  Rng rng{8};
  const Matrix u = Matrix::randn(30, 3, 1.0f, rng);
  const Matrix v = Matrix::randn(3, 25, 1.0f, rng);
  const Matrix w = matmul(u, v);
  const SvdResult svd = truncated_svd(w, 3);
  const Matrix back = svd.reconstruct();
  double err = 0.0;
  for (std::size_t r = 0; r < w.rows(); ++r)
    for (std::size_t c = 0; c < w.cols(); ++c)
      err += std::pow(double{w(r, c)} - double{back(r, c)}, 2);
  EXPECT_LT(std::sqrt(err) / w.frobenius_norm(), 1e-3);
}

TEST(Svd, SingularValuesDescending) {
  const Matrix w = random_matrix(40, 30, 9);
  const SvdResult svd = truncated_svd(w, 10);
  for (std::size_t i = 0; i + 1 < svd.sigma.size(); ++i)
    EXPECT_GE(svd.sigma[i], svd.sigma[i + 1] - 1e-5f);
}

TEST(Svd, TruncatedMatchesJacobiOracle) {
  const Matrix w = random_matrix(24, 18, 10);
  const SvdResult fast = truncated_svd(w, 6);
  const SvdResult oracle = jacobi_svd(w);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(fast.sigma[i], oracle.sigma[i],
                0.02 * oracle.sigma[0] + 1e-4);
}

TEST(Svd, RankValidation) {
  const Matrix w = random_matrix(5, 4, 11);
  EXPECT_THROW(truncated_svd(w, 0), std::invalid_argument);
  EXPECT_THROW(truncated_svd(w, 5), std::invalid_argument);
  EXPECT_NO_THROW(truncated_svd(w, 4));
}

TEST(Svd, BestRankOneOfDiagonal) {
  // diag(3, 1): rank-1 truncation keeps the 3.
  Matrix w(2, 2);
  w(0, 0) = 3.0f;
  w(1, 1) = 1.0f;
  const SvdResult svd = truncated_svd(w, 1);
  EXPECT_NEAR(svd.sigma[0], 3.0, 1e-4);
  const Matrix approx = svd.reconstruct();
  EXPECT_NEAR(approx(0, 0), 3.0, 1e-3);
  EXPECT_NEAR(approx(1, 1), 0.0, 1e-3);
}

/// Property sweep: relative reconstruction error at rank r never
/// exceeds the tail mass of the spectrum (Eckart–Young, approximately,
/// since the range finder is randomized).
class SvdSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SvdSweep, ReconstructionErrorBounded) {
  const std::size_t rank = GetParam();
  const Matrix w = random_matrix(32, 32, 100 + rank);
  const SvdResult full = jacobi_svd(w);
  const SvdResult trunc = truncated_svd(w, rank);
  const Matrix back = trunc.reconstruct();

  double err2 = 0.0;
  for (std::size_t r = 0; r < w.rows(); ++r)
    for (std::size_t c = 0; c < w.cols(); ++c)
      err2 += std::pow(double{w(r, c)} - double{back(r, c)}, 2);

  double tail2 = 0.0;
  for (std::size_t i = rank; i < full.sigma.size(); ++i)
    tail2 += double{full.sigma[i]} * double{full.sigma[i]};

  EXPECT_LE(std::sqrt(err2), 1.10 * std::sqrt(tail2) + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SvdSweep,
                         ::testing::Values(2, 4, 8, 16, 24, 31));

}  // namespace
}  // namespace sparsenn
