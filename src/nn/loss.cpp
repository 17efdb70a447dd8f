#include "nn/loss.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace sparsenn {

double cross_entropy_loss(std::span<const float> logits, int label) {
  expects(label >= 0 && static_cast<std::size_t>(label) < logits.size(),
          "label out of range");
  const Vector probs = softmax(logits);
  const double p = std::max(double{probs[static_cast<std::size_t>(label)]},
                            1e-12);
  return -std::log(p);
}

Vector cross_entropy_gradient(std::span<const float> logits, int label) {
  expects(label >= 0 && static_cast<std::size_t>(label) < logits.size(),
          "label out of range");
  Vector grad = softmax(logits);
  grad[static_cast<std::size_t>(label)] -= 1.0f;
  return grad;
}

}  // namespace sparsenn
