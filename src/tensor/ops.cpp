#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

namespace sparsenn {

void relu_inplace(std::span<float> x) noexcept {
  for (float& v : x) v = std::max(v, 0.0f);
}

Vector softmax(std::span<const float> logits) {
  expects(!logits.empty(), "softmax of empty vector");
  const float peak = *std::max_element(logits.begin(), logits.end());
  Vector out(logits.size());
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - peak);
    total += out[i];
  }
  const auto inv = static_cast<float>(1.0 / total);
  for (float& v : out) v *= inv;
  return out;
}

std::size_t argmax(std::span<const float> x) {
  expects(!x.empty(), "argmax of empty vector");
  return static_cast<std::size_t>(
      std::distance(x.begin(), std::max_element(x.begin(), x.end())));
}

}  // namespace sparsenn
