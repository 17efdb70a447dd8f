#pragma once
// Elementwise and reduction operations used by the NN layer math.

#include <span>

#include "tensor/matrix.hpp"

namespace sparsenn {

/// max(0, x) elementwise, in place.
void relu_inplace(std::span<float> x) noexcept;

/// Returns ReLU(x) as a new vector.
Vector relu(std::span<const float> x);

/// Heaviside mask: 1 when x > 0, else 0. The deployed predictor bit.
Vector positive_mask(std::span<const float> x);

/// Elementwise product z = x ∘ y.
Vector hadamard(std::span<const float> x, std::span<const float> y);

/// Straight-through window 1[|x| < 1] from the binarised-network trick:
/// the derivative of clamp(x, -1, 1) used to pass gradients through sign.
Vector straight_through_window(std::span<const float> x);

/// Numerically stable softmax.
Vector softmax(std::span<const float> logits);

/// Index of the maximum element (first on ties).
std::size_t argmax(std::span<const float> x);

}  // namespace sparsenn
