#include "nn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/fork_join.hpp"
#include "common/logging.hpp"
#include "data/digits.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace sparsenn {
namespace {

/// Per-worker gradient accumulators, one matrix per trainable tensor.
struct Gradients {
  std::vector<Matrix> w;
  std::vector<Matrix> u;
  std::vector<Matrix> v;
  double loss = 0.0;

  explicit Gradients(const Network& net) {
    const std::size_t nl = net.num_weight_layers();
    w.reserve(nl);
    for (std::size_t l = 0; l < nl; ++l)
      w.emplace_back(net.weight(l).rows(), net.weight(l).cols());
    u.resize(nl);
    v.resize(nl);
    for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
      if (net.has_predictor(l)) {
        u[l] = Matrix(net.predictor(l).u().rows(),
                      net.predictor(l).u().cols());
        v[l] = Matrix(net.predictor(l).v().rows(),
                      net.predictor(l).v().cols());
      }
    }
  }

  void reset() {
    for (Matrix& m : w) std::fill(m.flat().begin(), m.flat().end(), 0.0f);
    for (Matrix& m : u) std::fill(m.flat().begin(), m.flat().end(), 0.0f);
    for (Matrix& m : v) std::fill(m.flat().begin(), m.flat().end(), 0.0f);
    loss = 0.0;
  }

  void merge(const Gradients& other) {
    for (std::size_t l = 0; l < w.size(); ++l) {
      axpy(w[l], 1.0f, other.w[l]);
      if (!u[l].empty()) axpy(u[l], 1.0f, other.u[l]);
      if (!v[l].empty()) axpy(v[l], 1.0f, other.v[l]);
    }
    loss += other.loss;
  }
};

/// Backpropagation for sample `i` of a batched forward trace, following
/// Alg. 1 line by line. `train_predictor` is true only in the
/// end-to-end regime: the SVD baseline keeps U/V frozen within an epoch
/// (static update rule).
void accumulate_sample(const Network& net, const ForwardTrace& trace,
                       std::size_t i, int label, double lambda,
                       bool train_predictor, Gradients& grads) {
  const std::size_t nl = net.num_weight_layers();
  const std::span<const float> logits = trace.output().row(i);

  grads.loss += cross_entropy_loss(logits, label);

  // δ at the output of the top layer.
  Vector delta = cross_entropy_gradient(logits, label);

  for (std::size_t l = nl; l-- > 0;) {
    const std::span<const float> a_in = trace.activations[l].row(i);
    const bool is_output = (l + 1 == nl);

    if (is_output) {
      // Linear output layer: γ = δ directly.
      add_outer(grads.w[l], 1.0f, delta, a_in);
      if (l > 0) delta = matvec_transposed(net.weight(l), delta);
      continue;
    }

    // Hidden layer. delta currently holds ∂ℓ/∂a(l+1).
    const std::span<const float> a_ori = trace.unmasked[l].row(i);
    const std::span<const float> z = trace.pre_activations[l].row(i);

    Vector gamma;  // ∂ℓ/∂(W a), the masked ReLU-gated error
    if (net.has_predictor(l)) {
      const std::span<const float> mask = trace.masks[l].row(i);
      const std::span<const float> t = trace.predictor_pre_sign[l].row(i);
      const std::span<const float> s = trace.predictor_mid[l].row(i);

      // ∂ℓ/∂p = δ ∘ a_ori (+ λ sign(p), Eq. 4). p = sign(t).
      // θ = ∂ℓ/∂p gated by the straight-through window 1[|t|<1].
      if (train_predictor) {
        Vector dp = hadamard(delta, a_ori);
        for (std::size_t j = 0; j < dp.size(); ++j) {
          const float sign_p = t[j] < 0.0f ? -1.0f : 1.0f;
          dp[j] += static_cast<float>(lambda) * sign_p;
        }
        const Vector window = straight_through_window(t);
        const Vector theta = hadamard(dp, window);

        // ∂ℓ/∂U = θ s^T ; ∂ℓ/∂V = (U^T θ) a^T.
        add_outer(grads.u[l], 1.0f, theta, s);
        const Vector ut_theta =
            matvec_transposed(net.predictor(l).u(), theta);
        add_outer(grads.v[l], 1.0f, ut_theta, a_in);
      }

      // ∂ℓ/∂a_ori = δ ∘ p; γ gated by ReLU'(z).
      gamma = hadamard(delta, mask);
      for (std::size_t j = 0; j < gamma.size(); ++j)
        if (z[j] <= 0.0f) gamma[j] = 0.0f;
    } else {
      gamma = delta;
      for (std::size_t j = 0; j < gamma.size(); ++j)
        if (z[j] <= 0.0f) gamma[j] = 0.0f;
    }

    add_outer(grads.w[l], 1.0f, gamma, a_in);
    // Alg. 1: δ(l) = W^T γ (the predictor path into δ is dropped).
    // Nothing reads the input layer's δ, so l = 0 skips it, here and
    // in the output branch above.
    if (l > 0) delta = matvec_transposed(net.weight(l), gamma);
  }
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

void apply_update(Network& net, const Gradients& grads, double lr,
                  double weight_decay, std::size_t batch,
                  bool update_predictor) {
  const auto step = static_cast<float>(lr / static_cast<double>(batch));
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l) {
    if (weight_decay > 0.0) {
      const auto shrink = static_cast<float>(1.0 - lr * weight_decay);
      for (float& v : net.weight(l).flat()) v *= shrink;
    }
    axpy(net.weight(l), -step, grads.w[l]);
    if (update_predictor && l < net.num_hidden_layers() &&
        net.has_predictor(l)) {
      axpy(net.predictor(l).u(), -step, grads.u[l]);
      axpy(net.predictor(l).v(), -step, grads.v[l]);
    }
  }
}

void attach_predictors(Network& net, const TrainOptions& options,
                       Rng& rng) {
  if (options.kind == PredictorKind::kNone) return;
  (void)rng;
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const std::size_t m = net.weight(l).rows();
    const std::size_t n = net.weight(l).cols();
    const std::size_t rank = std::min({options.rank, m, n});
    // Both regimes start from the truncated SVD of the fresh weights so
    // the initial masks are consistent with the layer they gate; the
    // end-to-end regime then trains U/V away from that point (the
    // paper's improvement over keeping the static SVD update rule).
    net.set_predictor(l, Predictor::from_svd(net.weight(l), rank));
  }
}

void refresh_svd_predictors(Network& net, std::size_t rank) {
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const std::size_t m = net.weight(l).rows();
    const std::size_t n = net.weight(l).cols();
    net.set_predictor(
        l, Predictor::from_svd(net.weight(l), std::min({rank, m, n})));
  }
}

}  // namespace

TrainReport train(Network& network, const DatasetSplit& split,
                  const TrainOptions& options) {
  expects(split.train.size() > 0, "empty training split");
  const auto start = std::chrono::steady_clock::now();

  Rng rng{options.seed};
  attach_predictors(network, options, rng);

  const std::size_t threads = resolve_threads(options.threads);
  std::vector<Gradients> worker_grads;
  worker_grads.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    worker_grads.emplace_back(network);

  const bool e2e = options.kind == PredictorKind::kEndToEnd;
  TrainReport report;
  double lr = options.learning_rate;

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.kind == PredictorKind::kSvd && epoch > 0) {
      // Static update rule: recompute U/V from W once per epoch.
      refresh_svd_predictors(network, options.rank);
    }

    BatchIterator batches(split.train.size(), options.batch_size, rng);
    double epoch_loss = 0.0;
    std::size_t seen = 0;

    for (auto batch = batches.next(); !batch.empty();
         batch = batches.next()) {
      for (auto& g : worker_grads) g.reset();

      // Chunk t always lands in worker_grads[t], whichever thread runs
      // it, so the reduction below sees the same partial sums. Each
      // chunk runs one batched forward pass, then back-propagates its
      // samples in order.
      const std::size_t chunk =
          (batch.size() + threads - 1) / threads;
      fork_join((batch.size() + chunk - 1) / chunk, threads,
                [&](std::size_t t) {
                  const std::size_t lo = t * chunk;
                  const std::size_t hi =
                      std::min(lo + chunk, batch.size());
                  Matrix inputs(hi - lo, split.train.inputs.cols());
                  for (std::size_t k = lo; k < hi; ++k)
                    std::ranges::copy(split.train.image(batch[k]),
                                      inputs.row(k - lo).begin());
                  const ForwardTrace trace =
                      network.forward(std::move(inputs));
                  for (std::size_t k = lo; k < hi; ++k)
                    accumulate_sample(network, trace, k - lo,
                                      split.train.labels[batch[k]],
                                      options.lambda, e2e, worker_grads[t]);
                });

      // Deterministic reduction order: worker 0 absorbs 1..T-1 in order.
      for (std::size_t t = 1; t < worker_grads.size(); ++t)
        worker_grads[0].merge(worker_grads[t]);

      apply_update(network, worker_grads[0], lr, options.weight_decay,
                   batch.size(), e2e);
      epoch_loss += worker_grads[0].loss;
      seen += batch.size();
    }

    epoch_loss /= static_cast<double>(seen);
    report.epoch_loss.push_back(epoch_loss);
    log_info("train", "epoch ", epoch, " loss ", epoch_loss, " lr ", lr);
    if (options.on_epoch) options.on_epoch(epoch, network, epoch_loss);
    lr *= options.lr_decay;
  }

  report.final_eval = evaluate(network, split.test);
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

TrainedModel train_network(const std::vector<std::size_t>& layer_sizes,
                           const DatasetSplit& split,
                           const TrainOptions& options) {
  Rng init_rng{options.seed ^ 0xabcdefULL};
  TrainedModel model{Network{layer_sizes, init_rng}, {}};
  model.report = train(model.network, split, options);
  return model;
}

std::vector<std::size_t> three_layer_topology(std::size_t hidden) {
  return {kImagePixels, hidden, kNumClasses};
}

std::vector<std::size_t> five_layer_topology(std::size_t hidden) {
  return {kImagePixels, hidden, hidden, hidden, kNumClasses};
}

}  // namespace sparsenn
