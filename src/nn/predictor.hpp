#pragma once
// The low-rank output-sparsity predictor p = sign(U V a) of Sections
// III.B/IV. A Predictor owns the factor pair; the network's forward
// pass evaluates the prediction (Network::forward_layer), and how U and
// V are obtained (truncated SVD vs end-to-end training) is the
// trainer's concern.

#include <cstdint>

#include "tensor/matrix.hpp"
#include "tensor/svd.hpp"

namespace sparsenn {

/// How a predictor's factors are produced / maintained.
enum class PredictorKind {
  kNone,      ///< no predictor (NO-UV baseline, also SparseNN's uv_off)
  kSvd,       ///< truncated SVD of W, refreshed once per epoch [Davis13]
  kEndToEnd,  ///< trained jointly with W via Alg. 1 (this paper)
};

std::string_view to_string(PredictorKind kind);

/// Low-rank pair U (m×r), V (r×n) with p = sign(U V a).
class Predictor {
 public:
  Predictor(Matrix u, Matrix v);

  /// Random init for end-to-end training (small Gaussian).
  static Predictor random(std::size_t out_dim, std::size_t in_dim,
                          std::size_t rank, Rng& rng);

  /// Factors from the rank-r truncated SVD of `w`: U ← U_r diag(σ_r),
  /// V ← V_r^T, so U V is the best rank-r Frobenius approximation of W.
  static Predictor from_svd(const Matrix& w, std::size_t rank,
                            const SvdOptions& options = {});

  std::size_t rank() const noexcept { return u_.cols(); }
  std::size_t input_dim() const noexcept { return v_.cols(); }
  std::size_t output_dim() const noexcept { return u_.rows(); }

  Matrix& u() noexcept { return u_; }
  const Matrix& u() const noexcept { return u_; }
  Matrix& v() noexcept { return v_; }
  const Matrix& v() const noexcept { return v_; }

  /// Multiply–accumulate cost of one prediction relative to the full
  /// layer (the paper's "<5% overhead" figure): r(m+n) / (mn).
  double relative_cost() const noexcept;

 private:
  Matrix u_;  ///< m × r
  Matrix v_;  ///< r × n
};

}  // namespace sparsenn
