#include "nn/predictor.hpp"

#include <cmath>

#include "common/check.hpp"

namespace sparsenn {

std::string_view to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kNone: return "no_uv";
    case PredictorKind::kSvd: return "svd";
    case PredictorKind::kEndToEnd: return "end_to_end";
  }
  return "unknown";
}

Predictor::Predictor(Matrix u, Matrix v) : u_(std::move(u)), v_(std::move(v)) {
  expects(u_.cols() == v_.rows(), "U/V rank mismatch");
  expects(u_.cols() > 0, "predictor rank must be positive");
}

Predictor Predictor::random(std::size_t out_dim, std::size_t in_dim,
                            std::size_t rank, Rng& rng) {
  // Variance-preserving init through the two-matrix chain keeps the
  // pre-sign values in the straight-through window at the start.
  const float u_std =
      std::sqrt(2.0f / static_cast<float>(rank + out_dim));
  const float v_std =
      std::sqrt(2.0f / static_cast<float>(in_dim + rank));
  return Predictor{Matrix::randn(out_dim, rank, u_std, rng),
                   Matrix::randn(rank, in_dim, v_std, rng)};
}

Predictor Predictor::from_svd(const Matrix& w, std::size_t rank,
                              const SvdOptions& options) {
  const SvdResult svd = truncated_svd(w, rank, options);
  // Fold the singular values into U so U*V ≈ W.
  Matrix u = svd.u;
  for (std::size_t r = 0; r < u.rows(); ++r) {
    auto row = u.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] *= svd.sigma[c];
  }
  return Predictor{std::move(u), svd.v.transposed()};
}

double Predictor::relative_cost() const noexcept {
  const double r = static_cast<double>(rank());
  const double m = static_cast<double>(output_dim());
  const double n = static_cast<double>(input_dim());
  return r * (m + n) / (m * n);
}

}  // namespace sparsenn
