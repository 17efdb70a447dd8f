#pragma once
// Dense row-major matrix and vector types.
//
// This is the numeric substrate for training and for the golden models.
// Only the operations the repository needs are provided; they are written
// for clarity first and cache behaviour second (blocked GEMM, transposed
// matvec via row-sweep) which is plenty for the paper's MLP sizes.

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace sparsenn {

using Vector = std::vector<float>;

/// Row-major dense matrix of float.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Gaussian init with the given stddev (He/Xavier chosen by caller).
  static Matrix randn(std::size_t rows, std::size_t cols, float stddev,
                      Rng& rng);

  /// Identity (square).
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    expects(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    expects(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  /// Unchecked access for hot loops.
  float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<float> flat() noexcept { return data_; }
  std::span<const float> flat() const noexcept { return data_; }

  Matrix transposed() const;

  /// Frobenius norm.
  double frobenius_norm() const noexcept;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// y = A x  (dims checked).
Vector matvec(const Matrix& a, std::span<const float> x);

/// Y = X Aᵀ: row i of the result is matvec(a, xs.row(i)) bit for bit,
/// but each weight of `a` is read once per eight rows of `xs` instead
/// of once per row (the batched form of calibration's forward passes).
/// Runs an AVX2 build of its inner loop whenever active_simd_isa() is
/// kAvx2, with the same rounding as the portable one.
Matrix matvec_rows(const Matrix& a, const Matrix& xs);

/// y = A^T x without materialising the transpose (row-sweep accumulate).
Vector matvec_transposed(const Matrix& a, std::span<const float> x);

/// C = A B, blocked for cache friendliness.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Dot product.
double dot(std::span<const float> x, std::span<const float> y);

/// Euclidean norm of a vector.
double norm2(std::span<const float> x) noexcept;

}  // namespace sparsenn
