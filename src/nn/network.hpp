#pragma once
// The ReLU multi-layer perceptron with per-layer output-sparsity
// predictors, mirroring Section III/IV of the paper.
//
// A network with L layers of units has L-1 weight matrices. Hidden
// layers use ReLU and may carry a low-rank (U, V) predictor; the output
// layer is linear (softmax applied by the loss). No biases, matching
// Eq. (1) of the paper.

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "nn/predictor.hpp"
#include "tensor/matrix.hpp"

namespace sparsenn {

/// One layer of the float forward pass over a batch of samples: row i
/// of every matrix is sample i. A hidden layer computes z = W a and,
/// with a predictor, s = V a, t = U s, mask = [t > 0] and
/// a' = mask ⊙ ReLU(z); without one, a' = ReLU(z). The output layer is
/// linear (a' = z).
struct LayerForward {
  Matrix z;         ///< W a
  Matrix unmasked;  ///< ReLU(z) on a hidden layer, z on the output layer
  Matrix s;         ///< V a (empty without a predictor)
  Matrix t;         ///< U s, the pre-sign values (empty without one)
  Matrix mask;      ///< 1 where t > 0, else 0 (empty without one)
  Matrix a;         ///< the next layer's input a'
};

/// Everything the backward pass needs from one batched forward
/// evaluation. Each field holds one matrix per layer; row i of every
/// matrix is sample i.
struct ForwardTrace {
  /// a(1)..a(L): activations per layer of units, post mask (entry 0 is
  /// the input).
  std::vector<Matrix> activations;
  /// z(l) = W(l) a(l) pre-nonlinearity, per weight layer.
  std::vector<Matrix> pre_activations;
  /// a_ori = ReLU(z) before predictor masking (hidden layers only; the
  /// entry for the output layer holds z unchanged).
  std::vector<Matrix> unmasked;
  /// t = U V a predictor pre-sign values (empty when no predictor).
  std::vector<Matrix> predictor_pre_sign;
  /// s = V a intermediate (empty when no predictor).
  std::vector<Matrix> predictor_mid;
  /// Heaviside masks actually applied (empty when no predictor).
  std::vector<Matrix> masks;

  const Matrix& output() const { return activations.back(); }
};

/// MLP with optional per-hidden-layer sparsity predictors.
class Network {
 public:
  /// `layer_sizes` = {n_in, n_h1, ..., n_out}; weights are He-initialised.
  Network(std::vector<std::size_t> layer_sizes, Rng& rng);

  /// A network of the given weight matrices, first layer first; each
  /// matrix's column count must equal the previous one's row count.
  explicit Network(std::vector<Matrix> weights);

  std::size_t num_weight_layers() const noexcept { return weights_.size(); }
  std::size_t num_hidden_layers() const noexcept {
    return weights_.empty() ? 0 : weights_.size() - 1;
  }
  const std::vector<std::size_t>& layer_sizes() const noexcept {
    return sizes_;
  }

  Matrix& weight(std::size_t layer) { return weights_.at(layer); }
  const Matrix& weight(std::size_t layer) const {
    return weights_.at(layer);
  }

  /// Attaches (or replaces) the predictor of hidden layer `layer`
  /// (0-based weight-layer index; must be < num_hidden_layers()).
  void set_predictor(std::size_t layer, Predictor predictor);
  void clear_predictors();
  bool has_predictor(std::size_t layer) const;
  Predictor& predictor(std::size_t layer);
  const Predictor& predictor(std::size_t layer) const;

  /// Forward pass of every row of `inputs` (one sample per row),
  /// retaining the intermediates for training and evaluation.
  ForwardTrace forward(Matrix inputs) const;

  /// Weight layer `layer` applied to the batch `a` (rows are samples):
  /// the float layer arithmetic of forward(). Each product reads each
  /// weight once per eight rows (matvec_rows), and every output equals
  /// matvec() of its row bit for bit.
  LayerForward forward_layer(std::size_t layer, const Matrix& a) const;

  /// Total trainable parameter count (W + U + V).
  std::size_t parameter_count() const noexcept;

 private:
  std::vector<std::size_t> sizes_;
  std::vector<Matrix> weights_;
  std::vector<std::optional<Predictor>> predictors_;
};

}  // namespace sparsenn
