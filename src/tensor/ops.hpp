#pragma once
// Elementwise and reduction operations used by the NN layer math.

#include <span>

#include "tensor/matrix.hpp"

namespace sparsenn {

/// max(0, x) elementwise, in place.
void relu_inplace(std::span<float> x) noexcept;

/// Returns ReLU(x) as a new vector.
Vector relu(std::span<const float> x);

/// sign(x) in {-1, +1}; sign(0) = +1 to match the paper's "predicted
/// nonzero when UVa = 0" reading (the hardware predictor bit is UVa > 0,
/// see nn/network.hpp's LayerForward for where the distinction matters).
Vector sign(std::span<const float> x);

/// Heaviside mask: 1 when x > 0, else 0. The deployed predictor bit.
Vector positive_mask(std::span<const float> x);

/// Elementwise product z = x ∘ y.
Vector hadamard(std::span<const float> x, std::span<const float> y);

/// In-place z ∘= y.
void hadamard_inplace(std::span<float> x, std::span<const float> y);

/// Straight-through window 1[|x| < 1] from the binarised-network trick:
/// the derivative of clamp(x, -1, 1) used to pass gradients through sign.
Vector straight_through_window(std::span<const float> x);

/// Numerically stable softmax.
Vector softmax(std::span<const float> logits);

/// Index of the maximum element (first on ties).
std::size_t argmax(std::span<const float> x);

/// Clamp every element into [lo, hi], in place.
void clamp_inplace(std::span<float> x, float lo, float hi) noexcept;

}  // namespace sparsenn
