#pragma once
// SGD training of the MLP in the three regimes the paper compares:
//
//   NO-UV      — plain backprop, no predictor (Table I "NO UV").
//   SVD        — W trained with the predictor active in the forward
//                pass, U/V refreshed from the truncated SVD of W once
//                per epoch (the static baseline of Davis et al. 2013 /
//                LRADNN that Section III.B describes).
//   End-to-End — Alg. 1: U, V, W all trained by backprop, gradient
//                passed through sign() with the straight-through
//                estimator 1[|UVa|<1], plus the ℓ1 sparsity term of
//                Eq. (4): ∂ℓ/∂p += λ·sign(p).
//
// Each minibatch is two fork-join passes: one over chunks of samples
// (forward pass and back-propagated error), one over rows of each
// weight matrix (gradient and update). Every gradient element sums its
// samples in sample order whichever task owns it, so a seed trains
// bit-identical weights at every thread count.

#include <functional>

#include "data/dataset.hpp"
#include "nn/metrics.hpp"
#include "nn/network.hpp"

namespace sparsenn {

/// Hyperparameters of one training run.
struct TrainOptions {
  PredictorKind kind = PredictorKind::kEndToEnd;
  std::size_t rank = 15;
  std::size_t epochs = 6;
  std::size_t batch_size = 32;
  double learning_rate = 0.05;
  double lr_decay = 0.85;       ///< multiplicative per epoch
  double lambda = 2e-4;         ///< ℓ1 sparsity regulariser (Eq. 4)
  double weight_decay = 0.0;
  std::uint64_t seed = 1234;
  std::size_t threads = 0;      ///< 0 = use hardware_concurrency (capped)
  /// Optional per-epoch observer (epoch index, network, epoch stats).
  std::function<void(std::size_t, const Network&, double train_loss)>
      on_epoch;
};

/// Per-run summary returned by train().
struct TrainReport {
  /// Mean cross-entropy over each epoch's training samples; it leaves
  /// out Eq. 4's λ term, so in the end-to-end regime it is not the
  /// whole objective Alg. 1 minimises.
  std::vector<double> epoch_loss;
  EvalResult final_eval;            ///< evaluation on the test split
  double seconds = 0.0;
};

/// Builds a fresh network of `layer_sizes`, attaches predictors per
/// `options.kind`, trains on `split.train`, evaluates on `split.test`.
/// Throws std::invalid_argument before training when either split is
/// empty.
TrainReport train(Network& network, const DatasetSplit& split,
                  const TrainOptions& options);

/// Convenience: construct + train + return the network.
struct TrainedModel {
  Network network;
  TrainReport report;
};
TrainedModel train_network(const std::vector<std::size_t>& layer_sizes,
                           const DatasetSplit& split,
                           const TrainOptions& options);

/// The paper's two architectures: "3-layer" = one hidden layer,
/// "5-layer" = three hidden layers, hidden width per Section VI.A.
std::vector<std::size_t> three_layer_topology(std::size_t hidden = 1000);
std::vector<std::size_t> five_layer_topology(std::size_t hidden = 1000);

}  // namespace sparsenn
