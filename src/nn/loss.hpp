#pragma once
// Softmax cross-entropy loss and its gradient with respect to the
// network's linear output layer.

#include <span>

#include "tensor/matrix.hpp"

namespace sparsenn {

/// -log softmax(logits)[label].
double cross_entropy_loss(std::span<const float> logits, int label);

/// d loss / d logits = softmax(logits) - onehot(label).
Vector cross_entropy_gradient(std::span<const float> logits, int label);

}  // namespace sparsenn
