#include "nn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.hpp"
#include "common/fork_join.hpp"
#include "common/logging.hpp"
#include "data/digits.hpp"
#include "nn/loss.hpp"

namespace sparsenn {
namespace {

/// A half-open index range [lo, hi).
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Block t of [0, n) cut into `parts` near-equal contiguous blocks.
Range block(std::size_t n, std::size_t parts, std::size_t t) {
  return {n * t / parts, n * (t + 1) / parts};
}

/// One row per sample of a minibatch, in sample order.
using Rows = std::vector<std::span<const float>>;

/// One SGD step on rows `rows` and columns `cols` of `param`:
///   p(r, c) ← p(r, c)·shrink + alpha·Σ_k x[k][r]·y[k][c].
/// Each gradient element sums the samples k < y.size() in order from
/// +0 with a float multiply, then add, skipping terms with x[k][r] = 0:
/// the sum one rank-1 update x[k]·y[k]ᵀ per sample accumulates. The
/// shrink runs only when it is not 1. Four rows share each read of a
/// sample's y.
void sgd_rows(Matrix& param, const Rows& x, const Rows& y, Range rows,
              Range cols, float shrink, float alpha) {
  constexpr std::size_t kGroup = 4;
  const std::size_t width = cols.hi - cols.lo;
  std::vector<float> sums(kGroup * width);
  for (std::size_t r0 = rows.lo; r0 < rows.hi; r0 += kGroup) {
    const std::size_t group = std::min(kGroup, rows.hi - r0);
    std::fill_n(sums.begin(), group * width, 0.0f);
    for (std::size_t k = 0; k < y.size(); ++k) {
      const float* yk = y[k].data() + cols.lo;
      for (std::size_t i = 0; i < group; ++i) {
        const float g = x[k][r0 + i];
        if (g == 0.0f) continue;
        float* acc = sums.data() + i * width;
        for (std::size_t c = 0; c < width; ++c) acc[c] += g * yk[c];
      }
    }
    for (std::size_t i = 0; i < group; ++i) {
      float* p = param.row(r0 + i).data() + cols.lo;
      const float* acc = sums.data() + i * width;
      for (std::size_t c = 0; c < width; ++c) {
        if (shrink != 1.0f) p[c] *= shrink;
        p[c] += alpha * acc[c];
      }
    }
  }
}

/// A run of consecutive samples of a minibatch: their forward trace
/// and, per weight layer, γ = ∂ℓ/∂(W a), the error gated by ReLU′(z)
/// and the predictor's mask (softmax − onehot on the output layer);
/// per end-to-end predictor, θ = ∂ℓ/∂t in the straight-through window
/// and θ·U. Row r of each matrix is the run's sample r.
struct Chunk : ForwardTrace {
  std::vector<Matrix> gamma;
  std::vector<Matrix> theta;
  std::vector<Matrix> theta_u;
};

/// Turns `gamma`, which holds δ = ∂ℓ/∂a′ of hidden layer l's output,
/// into the layer's γ, and in the end-to-end regime sets `theta`.
/// Alg. 1 line by line: with a predictor p = sign(t), ∂ℓ/∂p = δ ∘ a_ori
/// + λ·sign(p) (Eq. 4), θ is that gated by the straight-through window
/// 1[|t| < 1], and γ = δ ∘ p; without one γ = δ. Either way γ is zero
/// where z ≤ 0.
void gate_hidden(const Network& net, std::size_t l, const ForwardTrace& trace,
                 float lambda, bool e2e, Matrix& gamma, Matrix& theta) {
  const bool predicted = net.has_predictor(l);
  if (predicted && e2e) theta = Matrix(gamma.rows(), gamma.cols());
  for (std::size_t r = 0; r < gamma.rows(); ++r) {
    const std::span<float> g = gamma.row(r);
    const std::span<const float> z = trace.pre_activations[l].row(r);
    if (predicted) {
      const std::span<const float> t = trace.predictor_pre_sign[l].row(r);
      if (e2e) {
        const std::span<const float> a_ori = trace.unmasked[l].row(r);
        const std::span<float> th = theta.row(r);
        for (std::size_t j = 0; j < g.size(); ++j) {
          float dp = g[j] * a_ori[j];
          dp += lambda * (t[j] < 0.0f ? -1.0f : 1.0f);
          th[j] = dp * (std::abs(t[j]) < 1.0f ? 1.0f : 0.0f);
        }
      }
      const std::span<const float> mask = trace.masks[l].row(r);
      for (std::size_t j = 0; j < g.size(); ++j) g[j] *= mask[j];
    }
    for (std::size_t j = 0; j < g.size(); ++j)
      if (z[j] <= 0.0f) g[j] = 0.0f;
  }
}

/// One minibatch of Alg. 1 in two fork-join passes over a fixed
/// partition, and returns the minibatch's summed loss. The first pass
/// splits the samples into contiguous chunks: each task runs its
/// chunk's forward pass and carries every sample's error down through
/// the layers (the predictor path into δ is dropped). The second splits
/// each layer by rows of W and U and by columns of V: each task sums
/// the gradients of the elements it owns over all samples, in sample
/// order, and steps them. No element's sum depends on the partition,
/// so the weights are the same for every thread count.
double minibatch_step(Network& net, const Dataset& data,
                      std::span<const std::size_t> batch, double lr,
                      const TrainOptions& options, std::size_t threads) {
  const std::size_t nl = net.num_weight_layers();
  const bool e2e = options.kind == PredictorKind::kEndToEnd;
  const auto lambda = static_cast<float>(options.lambda);
  const std::size_t b = batch.size();
  std::vector<double> loss(b);

  const std::size_t size = (b + threads - 1) / threads;
  std::vector<Chunk> chunks((b + size - 1) / size);
  fork_join(chunks.size(), threads, [&](std::size_t t) {
    const Range samples{t * size, std::min(b, (t + 1) * size)};
    Chunk& chunk = chunks[t];
    Matrix inputs(samples.hi - samples.lo, data.inputs.cols());
    for (std::size_t k = samples.lo; k < samples.hi; ++k)
      std::ranges::copy(data.image(batch[k]),
                        inputs.row(k - samples.lo).begin());
    static_cast<ForwardTrace&>(chunk) = net.forward(std::move(inputs));
    chunk.gamma.resize(nl);
    chunk.theta.resize(nl);
    chunk.theta_u.resize(nl);
    Matrix& top = chunk.gamma[nl - 1];
    top = Matrix(samples.hi - samples.lo, net.weight(nl - 1).rows());
    for (std::size_t k = samples.lo; k < samples.hi; ++k) {
      const std::span<const float> logits = chunk.output().row(k - samples.lo);
      const int label = data.labels[batch[k]];
      loss[k] = cross_entropy_loss(logits, label);
      std::ranges::copy(cross_entropy_gradient(logits, label),
                        top.row(k - samples.lo).begin());
    }
    for (std::size_t l = nl; l-- > 0;) {
      if (!chunk.theta[l].empty())
        chunk.theta_u[l] = matmul(chunk.theta[l], net.predictor(l).u());
      // Nothing reads the input layer's δ.
      if (l == 0) break;
      // δ = W(l)ᵀγ(l) per sample, gated into layer l−1's γ.
      chunk.gamma[l - 1] = matmul(chunk.gamma[l], net.weight(l));
      gate_hidden(net, l - 1, chunk, lambda, e2e, chunk.gamma[l - 1],
                  chunk.theta[l - 1]);
    }
  });

  // Layer l's matrix `field` of every chunk, as rows in sample order.
  const auto rows_of = [&](std::vector<Matrix> Chunk::*field, std::size_t l) {
    Rows rows;
    rows.reserve(b);
    for (const Chunk& chunk : chunks) {
      const Matrix& m = (chunk.*field)[l];
      for (std::size_t r = 0; r < m.rows(); ++r) rows.push_back(m.row(r));
    }
    return rows;
  };
  struct Operands {
    Rows a, gamma, theta, mid, theta_u;
  };
  std::vector<Operands> ops(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    ops[l].a = rows_of(&Chunk::activations, l);
    ops[l].gamma = rows_of(&Chunk::gamma, l);
    if (chunks[0].theta[l].empty()) continue;
    ops[l].theta = rows_of(&Chunk::theta, l);
    ops[l].mid = rows_of(&Chunk::predictor_mid, l);
    ops[l].theta_u = rows_of(&Chunk::theta_u, l);
  }
  const auto alpha = -static_cast<float>(lr / static_cast<double>(b));
  const float shrink =
      options.weight_decay > 0.0
          ? static_cast<float>(1.0 - lr * options.weight_decay)
          : 1.0f;
  fork_join(threads, threads, [&](std::size_t t) {
    for (std::size_t l = 0; l < nl; ++l) {
      Matrix& w = net.weight(l);
      const Range rows = block(w.rows(), threads, t);
      sgd_rows(w, ops[l].gamma, ops[l].a, rows, {0, w.cols()}, shrink, alpha);
      if (ops[l].theta.empty()) continue;
      Predictor& p = net.predictor(l);
      sgd_rows(p.u(), ops[l].theta, ops[l].mid, rows, {0, p.rank()}, 1.0f,
               alpha);
      sgd_rows(p.v(), ops[l].theta_u, ops[l].a, {0, p.rank()},
               block(w.cols(), threads, t), 1.0f, alpha);
    }
  });

  double sum = 0.0;
  for (const double sample_loss : loss) sum += sample_loss;
  return sum;
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

/// Sets every hidden layer's predictor to the rank-`rank` truncated SVD
/// of its current W.
void set_svd_predictors(Network& net, std::size_t rank) {
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
  expects(split.test.size() > 0, "empty test split");
  const auto start = std::chrono::steady_clock::now();

  Rng rng{options.seed};
  // Both predictor regimes start from the truncated SVD of the fresh
  // weights, so the initial masks are consistent with the layer they
  // gate; the end-to-end regime then trains U/V away from that point
  // (the paper's improvement over keeping the static SVD update rule).
  if (options.kind != PredictorKind::kNone)
    set_svd_predictors(network, options.rank);

  const std::size_t threads = resolve_threads(options.threads);
  TrainReport report;
  double lr = options.learning_rate;

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.kind == PredictorKind::kSvd && epoch > 0) {
      // Static update rule: recompute U/V from W once per epoch.
      set_svd_predictors(network, options.rank);
    }

    BatchIterator batches(split.train.size(), options.batch_size, rng);
    double epoch_loss = 0.0;
    std::size_t seen = 0;
    for (auto batch = batches.next(); !batch.empty();
         batch = batches.next()) {
      epoch_loss +=
          minibatch_step(network, split.train, batch, lr, options, threads);
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
