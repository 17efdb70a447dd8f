#include "nn/network.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace sparsenn {

Network::Network(std::vector<std::size_t> layer_sizes, Rng& rng)
    : sizes_(std::move(layer_sizes)) {
  expects(sizes_.size() >= 2, "network needs at least input and output");
  for (std::size_t s : sizes_) expects(s > 0, "layer size must be positive");
  weights_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    // He initialisation for the ReLU layers.
    const float stddev =
        std::sqrt(2.0f / static_cast<float>(sizes_[l]));
    weights_.push_back(
        Matrix::randn(sizes_[l + 1], sizes_[l], stddev, rng));
  }
  predictors_.resize(weights_.size());
}

Network::Network(std::vector<Matrix> weights) : weights_(std::move(weights)) {
  expects(!weights_.empty(), "network needs at least one weight matrix");
  sizes_.push_back(weights_.front().cols());
  for (const Matrix& w : weights_) {
    expects(!w.empty(), "layer size must be positive");
    expects(w.cols() == sizes_.back(), "weight matrices must chain");
    sizes_.push_back(w.rows());
  }
  predictors_.resize(weights_.size());
}

void Network::set_predictor(std::size_t layer, Predictor predictor) {
  expects(layer < num_hidden_layers(),
          "predictors attach to hidden layers only");
  expects(predictor.output_dim() == weights_[layer].rows() &&
              predictor.input_dim() == weights_[layer].cols(),
          "predictor dimensions must match the layer");
  predictors_[layer] = std::move(predictor);
}

void Network::clear_predictors() {
  for (auto& p : predictors_) p.reset();
}

bool Network::has_predictor(std::size_t layer) const {
  return layer < predictors_.size() && predictors_[layer].has_value();
}

Predictor& Network::predictor(std::size_t layer) {
  expects(has_predictor(layer), "layer has no predictor");
  return *predictors_[layer];
}

const Predictor& Network::predictor(std::size_t layer) const {
  expects(has_predictor(layer), "layer has no predictor");
  return *predictors_[layer];
}

ForwardTrace Network::forward(Matrix inputs) const {
  expects(inputs.cols() == sizes_.front(), "input dimension mismatch");
  const std::size_t nl = weights_.size();
  ForwardTrace trace;
  trace.activations.push_back(std::move(inputs));
  for (std::size_t l = 0; l < nl; ++l) {
    LayerForward step = forward_layer(l, trace.activations.back());
    trace.pre_activations.push_back(std::move(step.z));
    trace.unmasked.push_back(std::move(step.unmasked));
    trace.predictor_mid.push_back(std::move(step.s));
    trace.predictor_pre_sign.push_back(std::move(step.t));
    trace.masks.push_back(std::move(step.mask));
    trace.activations.push_back(std::move(step.a));
  }
  return trace;
}

LayerForward Network::forward_layer(std::size_t layer,
                                    const Matrix& a) const {
  LayerForward out;
  out.z = matvec_rows(weights_.at(layer), a);
  out.unmasked = out.z;
  if (layer + 1 == weights_.size()) {
    out.a = out.z;  // linear output layer
    return out;
  }
  relu_inplace(out.unmasked.flat());
  if (!predictors_[layer]) {
    out.a = out.unmasked;
    return out;
  }
  out.s = matvec_rows(predictors_[layer]->v(), a);
  out.t = matvec_rows(predictors_[layer]->u(), out.s);
  out.mask = Matrix(out.t.rows(), out.t.cols());
  out.a = Matrix(out.t.rows(), out.t.cols());
  const std::span<const float> t = out.t.flat();
  const std::span<const float> unmasked = out.unmasked.flat();
  const std::span<float> mask = out.mask.flat();
  const std::span<float> next = out.a.flat();
  for (std::size_t i = 0; i < t.size(); ++i) {
    mask[i] = t[i] > 0.0f ? 1.0f : 0.0f;
    next[i] = mask[i] * unmasked[i];
  }
  return out;
}

std::size_t Network::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const Matrix& w : weights_) n += w.size();
  for (const auto& p : predictors_) {
    if (p) n += p->u().size() + p->v().size();
  }
  return n;
}

}  // namespace sparsenn
