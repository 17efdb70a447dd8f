#pragma once
// Elementwise and reduction operations used by the NN layer math.

#include <span>

#include "tensor/matrix.hpp"

namespace sparsenn {

/// max(0, x) elementwise, in place.
void relu_inplace(std::span<float> x) noexcept;

/// Numerically stable softmax.
Vector softmax(std::span<const float> logits);

/// Index of the maximum element (first on ties).
std::size_t argmax(std::span<const float> x);

}  // namespace sparsenn
