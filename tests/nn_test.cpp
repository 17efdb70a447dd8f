// Tests for src/nn: network forward semantics, predictor construction,
// loss, Alg. 1 training (numerical gradient verification where the
// gradients are exact, behavioural checks for the straight-through
// surrogate), metrics, and the quantised deployment model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "common/simd.hpp"
#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace sparsenn {
namespace {

Network tiny_network(std::vector<std::size_t> sizes, std::uint64_t seed) {
  Rng rng{seed};
  return Network{std::move(sizes), rng};
}

/// `x` as a one-sample batch for Network::forward.
Matrix one_row(std::span<const float> x) {
  Matrix m(1, x.size());
  std::ranges::copy(x, m.row(0).begin());
  return m;
}

/// One sample's forward pass written out with matvec and per-element
/// loops, the oracle of the batched Network::forward: every field is a
/// vector per layer, empty where ForwardTrace's matrix is empty.
struct RowTrace {
  std::vector<Vector> activations;
  std::vector<Vector> pre_activations;
  std::vector<Vector> unmasked;
  std::vector<Vector> predictor_pre_sign;
  std::vector<Vector> predictor_mid;
  std::vector<Vector> masks;
};

RowTrace reference_forward(const Network& net, std::span<const float> x) {
  const std::size_t nl = net.num_weight_layers();
  RowTrace out;
  out.activations.emplace_back(x.begin(), x.end());
  out.predictor_pre_sign.resize(nl);
  out.predictor_mid.resize(nl);
  out.masks.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    const Vector a = out.activations.back();
    const Vector z = matvec(net.weight(l), a);
    out.pre_activations.push_back(z);
    if (l + 1 == nl) {  // linear output layer
      out.unmasked.push_back(z);
      out.activations.push_back(z);
      continue;
    }
    Vector a_ori = z;
    for (float& v : a_ori) v = std::max(v, 0.0f);
    out.unmasked.push_back(a_ori);
    if (!net.has_predictor(l)) {
      out.activations.push_back(a_ori);
      continue;
    }
    out.predictor_mid[l] = matvec(net.predictor(l).v(), a);
    out.predictor_pre_sign[l] =
        matvec(net.predictor(l).u(), out.predictor_mid[l]);
    Vector& mask = out.masks[l];
    Vector next(a_ori.size());
    for (const float t : out.predictor_pre_sign[l])
      mask.push_back(t > 0.0f ? 1.0f : 0.0f);
    for (std::size_t j = 0; j < next.size(); ++j) next[j] = mask[j] * a_ori[j];
    out.activations.push_back(next);
  }
  return out;
}

/// Rows of `m` open with 1, 2^60, -2^60: against inputs opening with
/// 1, 1, 1, a sum taken in any but ascending column order moves.
void open_rows(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m(r, 0) = 1.0f;
    m(r, 1) = 0x1p60f;
    m(r, 2) = -0x1p60f;
  }
}

/// `rows` samples of width `cols`: about 30% zeros, the rest N(0, 2),
/// each opening with 1, 1, 1 (see open_rows).
Matrix opened_inputs(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix x(rows, cols);
  for (float& v : x.flat())
    v = rng.bernoulli(0.3) ? 0.0f : static_cast<float>(rng.normal(0.0, 2.0));
  for (std::size_t i = 0; i < rows; ++i) x(i, 0) = x(i, 1) = x(i, 2) = 1.0f;
  return x;
}

TEST(Network, TopologyAndShapes) {
  const Network net = tiny_network({6, 8, 4}, 1);
  EXPECT_EQ(net.num_weight_layers(), 2u);
  EXPECT_EQ(net.num_hidden_layers(), 1u);
  EXPECT_EQ(net.weight(0).rows(), 8u);
  EXPECT_EQ(net.weight(0).cols(), 6u);
  EXPECT_EQ(net.weight(1).rows(), 4u);
  EXPECT_THROW(tiny_network({5}, 2), std::invalid_argument);
}

TEST(Network, ForwardDimensionsAndReLU) {
  const Network net = tiny_network({6, 8, 4}, 3);
  const Vector x(6, 0.5f);
  const ForwardTrace trace = net.forward(one_row(x));
  EXPECT_EQ(trace.activations.size(), 3u);
  EXPECT_EQ(trace.activations[1].row(0).size(), 8u);
  EXPECT_EQ(trace.output().row(0).size(), 4u);
  for (float v : trace.activations[1].row(0)) EXPECT_GE(v, 0.0f);  // ReLU
  EXPECT_THROW(net.forward(one_row(Vector(5, 0.0f))), std::invalid_argument);
}

TEST(Network, PredictorMaskingAppliedInForward) {
  Network net = tiny_network({6, 8, 4}, 4);
  Rng rng{5};
  net.set_predictor(0, Predictor::random(8, 6, 3, rng));
  const Vector x(6, 0.7f);
  const ForwardTrace trace = net.forward(one_row(x));
  ASSERT_EQ(trace.masks[0].row(0).size(), 8u);
  for (std::size_t j = 0; j < 8; ++j) {
    if (trace.masks[0](0, j) == 0.0f) {
      EXPECT_FLOAT_EQ(trace.activations[1](0, j), 0.0f);
    } else {
      EXPECT_FLOAT_EQ(trace.activations[1](0, j), trace.unmasked[0](0, j));
    }
    // The mask is the Heaviside of the pre-sign value.
    EXPECT_EQ(trace.masks[0](0, j) > 0.0f,
              trace.predictor_pre_sign[0](0, j) > 0.0f);
  }
}

TEST(Network, ClearedPredictorsComputeEveryRow) {
  Network net = tiny_network({6, 8, 4}, 6);
  Rng rng{7};
  net.set_predictor(0, Predictor::random(8, 6, 3, rng));
  Rng xr{8};
  for (int trial = 0; trial < 20; ++trial) {
    Vector x(6);
    for (float& v : x) v = static_cast<float>(xr.uniform(0.0, 1.0));
    const ForwardTrace trace = net.forward(one_row(x));

    // uv_off is the same weights on a clear_predictors() copy, which
    // ignores the predictor entirely: every row passes its ReLU.
    Network bare = net;
    bare.clear_predictors();
    const ForwardTrace off = bare.forward(one_row(x));
    EXPECT_TRUE(off.masks[0].empty());
    EXPECT_EQ(off.activations[1], trace.unmasked[0]);
    EXPECT_EQ(off.output(),
              one_row(matvec(net.weight(1), trace.unmasked[0].row(0))));
  }
}

// The batched forward against the per-row reference, field by field and
// bit for bit (a -0/+0 flip fails). 1, 7, 8, 9, 17 and 70 rows leave
// ragged eight-row panels; odd widths leave remainders on matvec_rows'
// row pairs. Predictors are SVD ones (as train() attaches them), random
// ones (which mask about half the rows) or none, and the first layer's
// W and V rows open with 1, 2^60, -2^60, so a reordered sum shows.
TEST(Network, BatchedForwardMatchesPerRowReference) {
  enum class Kind { kNone, kSvd, kRandom };
  struct Case {
    std::vector<std::size_t> sizes;
    Kind kind;
    std::vector<std::size_t> ranks;  ///< per hidden layer; 0 = none
  };
  const std::vector<Case> cases = {
      {{13, 11, 9, 5}, Kind::kNone, {0, 0}},
      {{13, 11, 9, 5}, Kind::kRandom, {3, 2}},
      {{13, 11, 9, 5}, Kind::kSvd, {4, 4}},
      {{21, 17, 6, 15, 3}, Kind::kRandom, {4, 0, 1}},
      {{21, 17, 6, 15, 3}, Kind::kSvd, {15, 15, 15}},
  };
  const auto same_bits = [](std::span<const float> row, const Vector& ref) {
    return row.size() == ref.size() &&
           std::memcmp(row.data(), ref.data(), ref.size() * sizeof(float)) ==
               0;
  };
  const auto expect_field = [&](const std::vector<Matrix>& batched,
                                const std::vector<RowTrace>& refs,
                                std::vector<Vector> RowTrace::*field,
                                const char* name) {
    const std::size_t rows = refs.size();
    ASSERT_EQ(batched.size(), (refs.front().*field).size()) << name;
    for (std::size_t l = 0; l < batched.size(); ++l) {
      if ((refs.front().*field)[l].empty()) {
        EXPECT_TRUE(batched[l].empty()) << name << " layer " << l;
        continue;
      }
      ASSERT_EQ(batched[l].rows(), rows) << name << " layer " << l;
      for (std::size_t i = 0; i < rows; ++i)
        EXPECT_TRUE(same_bits(batched[l].row(i), (refs[i].*field)[l]))
            << name << " layer " << l << " row " << i << " of " << rows;
    }
  };

  std::uint64_t seed = 70;
  for (const Case& c : cases) {
    Rng rng{++seed};
    Network net{c.sizes, rng};
    for (std::size_t l = 0; l < c.ranks.size(); ++l) {
      if (c.ranks[l] == 0) continue;
      const std::size_t m = c.sizes[l + 1];
      const std::size_t n = c.sizes[l];
      net.set_predictor(
          l, c.kind == Kind::kSvd
                 ? Predictor::from_svd(net.weight(l),
                                       std::min({c.ranks[l], m, n}))
                 : Predictor::random(m, n, c.ranks[l], rng));
    }
    open_rows(net.weight(0));
    if (net.has_predictor(0)) open_rows(net.predictor(0).v());

    for (const std::size_t rows : {1u, 7u, 8u, 9u, 17u, 70u}) {
      SCOPED_TRACE("case seed " + std::to_string(seed) + ", " +
                   std::to_string(rows) + " rows");
      const Matrix inputs = opened_inputs(rows, c.sizes.front(), rng);
      std::vector<RowTrace> refs;
      for (std::size_t i = 0; i < rows; ++i)
        refs.push_back(reference_forward(net, inputs.row(i)));
      const ForwardTrace trace = net.forward(inputs);
      expect_field(trace.activations, refs, &RowTrace::activations,
                   "activations");
      expect_field(trace.pre_activations, refs, &RowTrace::pre_activations,
                   "pre_activations");
      expect_field(trace.unmasked, refs, &RowTrace::unmasked, "unmasked");
      expect_field(trace.predictor_pre_sign, refs,
                   &RowTrace::predictor_pre_sign, "predictor_pre_sign");
      expect_field(trace.predictor_mid, refs, &RowTrace::predictor_mid,
                   "predictor_mid");
      expect_field(trace.masks, refs, &RowTrace::masks, "masks");
    }
    EXPECT_THROW(net.forward(Matrix(3, c.sizes.front() + 1)),
                 std::invalid_argument);
  }
}

TEST(Network, PredictorValidation) {
  Network net = tiny_network({6, 8, 4}, 9);
  Rng rng{10};
  // Wrong dims rejected; output layer rejected.
  EXPECT_THROW(net.set_predictor(0, Predictor::random(7, 6, 2, rng)),
               std::invalid_argument);
  EXPECT_THROW(net.set_predictor(1, Predictor::random(4, 8, 2, rng)),
               std::invalid_argument);
  EXPECT_FALSE(net.has_predictor(0));
  net.set_predictor(0, Predictor::random(8, 6, 2, rng));
  EXPECT_TRUE(net.has_predictor(0));
  EXPECT_EQ(net.predictor(0).rank(), 2u);
}

TEST(Predictor, FromSvdApproximatesWeightProduct) {
  Rng rng{11};
  // Rank-2 W is exactly representable by a rank-2 predictor.
  const Matrix a = Matrix::randn(10, 2, 1.0f, rng);
  const Matrix b = Matrix::randn(2, 12, 1.0f, rng);
  const Matrix w = matmul(a, b);
  const Predictor p = Predictor::from_svd(w, 2);
  const Matrix uv = matmul(p.u(), p.v());
  for (std::size_t r = 0; r < w.rows(); ++r)
    for (std::size_t c = 0; c < w.cols(); ++c)
      EXPECT_NEAR(uv(r, c), w(r, c), 0.02);
}

TEST(Predictor, SvdPredictorAgreesOnStrongRows) {
  // For a high-margin matrix the rank-r sign prediction matches sign(Wa).
  Rng rng{12};
  const Matrix w = matmul(Matrix::randn(16, 3, 1.0f, rng),
                          Matrix::randn(3, 14, 1.0f, rng));
  const Predictor p = Predictor::from_svd(w, 3);
  Vector x(14);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
  const Vector exact = matvec(w, x);
  const Vector predicted = matvec(p.u(), matvec(p.v(), x));
  for (std::size_t i = 0; i < exact.size(); ++i) {
    if (std::abs(exact[i]) > 0.5f) {
      EXPECT_EQ(exact[i] > 0.0f, predicted[i] > 0.0f) << "row " << i;
    }
  }
}

TEST(Predictor, RelativeCostMatchesPaperFormula) {
  Rng rng{13};
  const Predictor p = Predictor::random(1000, 1000, 15, rng);
  // r(m+n)/(mn) = 15*2000/1e6 = 3% — the paper's "<5% overhead".
  EXPECT_NEAR(p.relative_cost(), 0.03, 1e-9);
  EXPECT_LT(p.relative_cost(), 0.05);
}

TEST(Loss, CrossEntropyAgainstManual) {
  const std::vector<float> logits{1.0f, 2.0f, 3.0f};
  const Vector probs = softmax(logits);
  EXPECT_NEAR(cross_entropy_loss(logits, 2), -std::log(probs[2]), 1e-6);
  EXPECT_THROW(cross_entropy_loss(logits, 3), std::invalid_argument);
}

TEST(Loss, GradientIsSoftmaxMinusOneHot) {
  const std::vector<float> logits{0.5f, -0.2f, 1.1f};
  const Vector g = cross_entropy_gradient(logits, 1);
  const Vector p = softmax(logits);
  EXPECT_NEAR(g[0], p[0], 1e-6);
  EXPECT_NEAR(g[1], p[1] - 1.0f, 1e-6);
  double total = 0.0;
  for (float v : g) total += v;
  EXPECT_NEAR(total, 0.0, 1e-5);  // gradient sums to zero
}

TEST(Loss, NumericalGradientCheck) {
  // Finite differences on the logits.
  std::vector<float> logits{0.3f, -0.7f, 0.9f, 0.1f};
  const int label = 2;
  const Vector g = cross_entropy_gradient(logits, label);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    std::vector<float> hi = logits;
    std::vector<float> lo = logits;
    hi[i] += eps;
    lo[i] -= eps;
    const double numeric = (cross_entropy_loss(hi, label) -
                            cross_entropy_loss(lo, label)) /
                           (2.0 * eps);
    EXPECT_NEAR(g[i], numeric, 1e-3);
  }
}

// ---- training ----

/// Plain backprop (no predictors) must match finite differences on
/// every weight: run one single-sample "batch" with lr chosen so the
/// applied update *is* the gradient, and compare against numerical
/// differentiation of the loss.
TEST(Trainer, PlainBackpropMatchesFiniteDifferences) {
  const std::vector<std::size_t> sizes{5, 6, 4, 3};
  Network net = tiny_network(sizes, 20);

  Rng rng{21};
  Vector x(5);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.1, 1.0));
  const int label = 1;

  const auto loss_at = [&](const Network& n) {
    return cross_entropy_loss(n.forward(one_row(x)).output().row(0), label);
  };

  // Extract the analytic gradient by running train() for one batch of
  // one sample with lr = 1: W_new = W - grad.
  DatasetSplit split;
  split.train.inputs = Matrix(1, 5);
  std::copy(x.begin(), x.end(), split.train.inputs.row(0).begin());
  split.train.labels = {label};
  split.test = split.train;

  TrainOptions options;
  options.kind = PredictorKind::kNone;
  options.epochs = 1;
  options.batch_size = 1;
  options.learning_rate = 1.0;
  options.lr_decay = 1.0;
  options.threads = 1;

  Network trained = net;
  train(trained, split, options);

  const float eps = 1e-3f;
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l) {
    const Matrix analytic_grad = [&] {
      Matrix g(net.weight(l).rows(), net.weight(l).cols());
      for (std::size_t i = 0; i < g.size(); ++i)
        g.flat()[i] = net.weight(l).flat()[i] - trained.weight(l).flat()[i];
      return g;
    }();
    // Spot-check a grid of entries per layer.
    for (std::size_t r = 0; r < net.weight(l).rows(); r += 2) {
      for (std::size_t c = 0; c < net.weight(l).cols(); c += 3) {
        Network hi = net;
        Network lo = net;
        hi.weight(l)(r, c) += eps;
        lo.weight(l)(r, c) -= eps;
        const double numeric =
            (loss_at(hi) - loss_at(lo)) / (2.0 * eps);
        EXPECT_NEAR(analytic_grad(r, c), numeric, 5e-3)
            << "layer " << l << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(Trainer, LearnsSeparableProblem) {
  // Two well-separated pixel patterns; a tiny net must reach ~0 error.
  DatasetSplit split;
  const std::size_t n = 80;
  split.train.inputs = Matrix(n, 8);
  split.train.labels.resize(n);
  Rng rng{22};
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    split.train.labels[i] = label;
    auto row = split.train.inputs.row(i);
    for (std::size_t j = 0; j < 8; ++j) {
      const bool active = label == 0 ? j < 4 : j >= 4;
      row[j] = active ? static_cast<float>(rng.uniform(0.6, 1.0))
                      : static_cast<float>(rng.uniform(0.0, 0.1));
    }
  }
  split.test = split.train;

  TrainOptions options;
  options.kind = PredictorKind::kNone;
  options.epochs = 12;
  options.learning_rate = 0.3;
  options.seed = 23;
  const TrainedModel model = train_network({8, 12, 2}, split, options);
  EXPECT_LT(model.report.final_eval.test_error_rate, 5.0);
}

class PredictorKindSweep
    : public ::testing::TestWithParam<PredictorKind> {};

TEST_P(PredictorKindSweep, TrainingRunsAndEvaluates) {
  DatasetOptions data;
  data.train_size = 150;
  data.test_size = 60;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, data);

  TrainOptions options;
  options.kind = GetParam();
  options.rank = 6;
  options.epochs = 2;
  const TrainedModel model =
      train_network({static_cast<std::size_t>(kImagePixels), 48, 10},
                    split, options);
  const EvalResult& eval = model.report.final_eval;
  EXPECT_LT(eval.test_error_rate, 90.0);  // far better than chance decay
  EXPECT_EQ(model.report.epoch_loss.size(), 2u);
  EXPECT_LT(model.report.epoch_loss.back(),
            model.report.epoch_loss.front());
  if (GetParam() != PredictorKind::kNone) {
    ASSERT_EQ(eval.predicted_sparsity.size(), 1u);
    EXPECT_GT(eval.predicted_sparsity[0], 0.0);
    EXPECT_LT(eval.predicted_sparsity[0], 100.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PredictorKindSweep,
    ::testing::Values(PredictorKind::kNone, PredictorKind::kSvd,
                      PredictorKind::kEndToEnd),
    [](const ::testing::TestParamInfo<PredictorKind>& info) {
      return std::string{to_string(info.param)};
    });

TEST(Trainer, LambdaIncreasesPredictedSparsity) {
  DatasetOptions data;
  data.train_size = 200;
  data.test_size = 60;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, data);

  const auto sparsity_with = [&](double lambda) {
    TrainOptions options;
    options.kind = PredictorKind::kEndToEnd;
    options.rank = 8;
    options.epochs = 3;
    options.lambda = lambda;
    options.seed = 24;
    const TrainedModel model = train_network(
        {static_cast<std::size_t>(kImagePixels), 64, 10}, split, options);
    return model.report.final_eval.predicted_sparsity.front();
  };
  // Eq. 4: a larger regularisation factor λ gives a sparser predictor.
  // The effect is gradual, so compare a strong λ against none.
  EXPECT_GT(sparsity_with(5e-2), sparsity_with(0.0) + 2.0);
}

TEST(Trainer, DeterministicForFixedThreadCount) {
  DatasetOptions data;
  data.train_size = 64;
  data.test_size = 16;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, data);

  const auto run = [&](std::size_t threads) {
    TrainOptions options;
    options.kind = PredictorKind::kEndToEnd;
    options.rank = 4;
    options.epochs = 1;
    options.threads = threads;
    options.seed = 25;
    Rng rng{options.seed ^ 0xabcdefULL};
    Network net{{static_cast<std::size_t>(kImagePixels), 32, 10}, rng};
    train(net, split, options);
    return net;
  };
  // Same seed and thread count → bit-identical result. (Different
  // thread counts change the float reduction order, so only the fixed
  // partition is guaranteed reproducible.)
  const Network a = run(4);
  const Network b = run(4);
  EXPECT_EQ(a.weight(0), b.weight(0));
  EXPECT_EQ(a.weight(1), b.weight(1));
  EXPECT_EQ(a.predictor(0).u(), b.predictor(0).u());
}

/// FNV-1a over the shape and bit pattern of every W, then every U and
/// V, of `net`.
std::uint64_t weight_digest(const Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const auto fold_matrix = [&](const Matrix& m) {
    fold(m.rows());
    fold(m.cols());
    for (const float v : m.flat()) fold(std::bit_cast<std::uint32_t>(v));
  };
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l)
    fold_matrix(net.weight(l));
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    if (!net.has_predictor(l)) continue;
    fold_matrix(net.predictor(l).u());
    fold_matrix(net.predictor(l).v());
  }
  return h;
}

/// Every thread count trains the same weights, bit for bit, in all
/// three regimes: each digest must equal the one-thread digest. The
/// pinned digests were recorded from the sample-split trainer at one
/// thread, so they also pin each regime's arithmetic: two hidden
/// layers, weight decay, two epochs (the SVD regime refreshes U/V
/// once) and a last minibatch of 4 of 100 samples. The samples come
/// from Rng::uniform alone, but He initialisation and the softmax call
/// libm, so a pinned digest may differ under another libm while the
/// thread-count check still holds.
TEST(Trainer, WeightsAreBitIdenticalForEveryThreadCount) {
  Rng rng{27};
  DatasetSplit split;
  split.train.inputs = Matrix(100, 64);
  for (std::size_t i = 0; i < split.train.inputs.rows(); ++i) {
    for (float& v : split.train.inputs.row(i))
      v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform());
    split.train.labels.push_back(static_cast<int>(rng.uniform_index(10)));
  }
  split.test = split.train;

  struct Case {
    PredictorKind kind;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {PredictorKind::kNone, 0x5f24f66f601167e8ULL},
      {PredictorKind::kSvd, 0x6e54032b278b4eb6ULL},
      {PredictorKind::kEndToEnd, 0xf4753ff449e4d3c0ULL},
  };
  for (const Case& c : cases) {
    std::uint64_t one_thread = 0;
    for (const std::size_t threads : {1, 2, 3, 4}) {
      TrainOptions options;
      options.kind = c.kind;
      options.rank = 4;
      options.epochs = 2;
      options.weight_decay = 1e-3;
      options.threads = threads;
      options.seed = 28;
      const TrainedModel model =
          train_network({64, 24, 16, 10}, split, options);
      const std::uint64_t digest = weight_digest(model.network);
      if (threads == 1) one_thread = digest;
      EXPECT_EQ(digest, one_thread)
          << to_string(c.kind) << " at " << threads << " threads";
      EXPECT_EQ(digest, c.digest)
          << to_string(c.kind) << " at " << threads << " threads";
    }
  }
}

TEST(Trainer, EmptyTestSplitFailsBeforeTraining) {
  DatasetOptions data;
  data.train_size = 8;
  data.test_size = 4;
  DatasetSplit split = make_dataset(DatasetVariant::kBasic, data);
  split.test = Dataset{};
  Network net = tiny_network({static_cast<std::size_t>(kImagePixels), 6, 10},
                             29);
  const Network before = net;
  TrainOptions options;
  options.kind = PredictorKind::kEndToEnd;
  options.rank = 2;
  EXPECT_THROW(train(net, split, options), std::invalid_argument);
  // Nothing trained and no predictor attached.
  EXPECT_EQ(net.weight(0), before.weight(0));
  EXPECT_FALSE(net.has_predictor(0));
}

TEST(Metrics, EvaluateReportsAllSparsities) {
  Network net = tiny_network({8, 10, 6, 3}, 26);
  Rng rng{27};
  net.set_predictor(0, Predictor::random(10, 8, 3, rng));
  net.set_predictor(1, Predictor::random(6, 10, 3, rng));

  Dataset dataset{Matrix(20, 8), std::vector<int>(20)};
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 8; ++j)
      dataset.inputs(i, j) = static_cast<float>(rng.uniform(0.0, 1.0));
    dataset.labels[i] = static_cast<int>(rng.uniform_index(3));
  }
  const EvalResult eval = evaluate(net, dataset);
  EXPECT_EQ(eval.predicted_sparsity.size(), 2u);
  EXPECT_EQ(eval.actual_sparsity.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    // Effective sparsity ≥ both components that produce zeros.
    EXPECT_GE(eval.effective_sparsity[l] + 1e-9,
              eval.predicted_sparsity[l]);
    EXPECT_GE(eval.effective_sparsity[l] + 1e-9,
              eval.actual_sparsity[l]);
  }
  const MaskAgreement agreement = mask_agreement(net, dataset, 0);
  EXPECT_NEAR(agreement.agreement_percent + agreement.false_kill_percent +
                  agreement.false_pass_percent,
              100.0, 1e-6);
}

TEST(Metrics, MaskAgreementRejectsEmptyDataset) {
  Network net = tiny_network({8, 10, 3}, 30);
  Rng rng{31};
  net.set_predictor(0, Predictor::random(10, 8, 3, rng));
  const Dataset empty{Matrix(0, 8), {}};
  EXPECT_THROW(mask_agreement(net, empty, 0), std::invalid_argument);
}

// ---- quantised model ----

TEST(Quantized, RescaleRounding) {
  EXPECT_EQ(rescale_to_i16(0, 18, 9), 0);
  EXPECT_EQ(rescale_to_i16(1 << 9, 18, 9), 1);       // exact
  EXPECT_EQ(rescale_to_i16(1 << 8, 18, 9), 1);       // rounds half up
  EXPECT_EQ(rescale_to_i16((1 << 8) - 1, 18, 9), 0); // below half
  EXPECT_EQ(rescale_to_i16(-(1 << 8), 18, 9), -1);   // symmetric
  EXPECT_EQ(rescale_to_i16(INT64_C(1) << 40, 18, 9), 32767);  // saturates
  EXPECT_EQ(rescale_to_i16(-(INT64_C(1) << 40), 18, 9), -32768);
  EXPECT_EQ(rescale_to_i16(3, 9, 9), 3);             // no shift
}

TEST(Quantized, MatchesFloatModelClosely) {
  DatasetOptions data;
  data.train_size = 300;
  data.test_size = 100;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, data);

  TrainOptions options;
  options.kind = PredictorKind::kEndToEnd;
  options.rank = 8;
  options.epochs = 3;
  const TrainedModel model = train_network(
      {static_cast<std::size_t>(kImagePixels), 64, 10}, split, options);

  const QuantizedNetwork q(model.network, split.train.inputs);
  const double float_ter = model.report.final_eval.test_error_rate;
  const double fixed_ter =
      q.test_error_rate(split.test.inputs, split.test.labels);
  // "negligible accuracy loss" — allow a few samples of slack.
  EXPECT_NEAR(fixed_ter, float_ter, 5.0);
}

TEST(Quantized, UvOffComputesEveryRow) {
  Network net = tiny_network({6, 8, 3}, 28);
  Rng rng{29};
  net.set_predictor(0, Predictor::random(8, 6, 2, rng));
  Matrix calib(4, 6, 0.5f);
  const QuantizedNetwork q(net, calib);

  const std::vector<std::int16_t> input = q.quantize_input(
      std::vector<float>{0.2f, 0.4f, 0.6f, 0.8f, 1.0f, 0.1f});
  const QuantizedLayerResult on = q.forward_layer(0, input, true);
  const QuantizedLayerResult off = q.forward_layer(0, input, false);
  for (std::uint8_t bit : off.mask) EXPECT_EQ(bit, 1);
  // Wherever the predictor passes a row, the two agree exactly.
  for (std::size_t r = 0; r < on.mask.size(); ++r) {
    if (on.mask[r])
      EXPECT_EQ(on.activations[r], off.activations[r]);
    else
      EXPECT_EQ(on.activations[r], 0);
  }
}

TEST(Quantized, InputSparsitySkipsAreExact) {
  // Zero inputs contribute nothing: quantised inference of a sparse
  // vector equals inference of its dense equivalent.
  Network net = tiny_network({8, 6, 3}, 30);
  Matrix calib(2, 8, 1.0f);
  const QuantizedNetwork q(net, calib);
  Vector x(8, 0.0f);
  x[1] = 0.9f;
  x[6] = 0.4f;
  const auto raw = q.infer_raw(x, false);
  // Reference: dense accumulate in double precision then quantise.
  const ForwardTrace trace = net.forward(one_row(x));
  const std::span<const float> logits = trace.output().row(0);
  const Vector deq = q.infer(x, false);
  for (std::size_t i = 0; i < logits.size(); ++i)
    EXPECT_NEAR(deq[i], logits[i], 0.05f + 0.02f * std::abs(logits[i]));
  EXPECT_EQ(raw.size(), 3u);
}

/// The per-sample calibration loop the batched pass replaced, kept as
/// its oracle: one reference_forward per sample, folding max |v| over
/// every layer's activations and every predictor's s = V a.
detail::CalibrationRanges per_sample_ranges(const Network& net,
                                            const Matrix& calibration,
                                            std::size_t limit) {
  const std::size_t samples = std::min(calibration.rows(), limit);
  const std::size_t nl = net.num_weight_layers();
  detail::CalibrationRanges ranges{std::vector<double>(nl + 1, 1e-6),
                                   std::vector<double>(nl, 1e-6)};
  for (std::size_t i = 0; i < samples; ++i) {
    const RowTrace trace = reference_forward(net, calibration.row(i));
    for (std::size_t l = 0; l <= nl; ++l)
      for (float v : trace.activations[l])
        ranges.act_max[l] = std::max(ranges.act_max[l], std::abs(double{v}));
    for (std::size_t l = 0; l < nl; ++l)
      for (float v : trace.predictor_mid[l])
        ranges.mid_max[l] = std::max(ranges.mid_max[l], std::abs(double{v}));
  }
  return ranges;
}

// Calibration runs every sample through the network at once
// (matvec_rows); its ranges, and so every format, must equal the
// per-sample reference loop exactly. Odd widths leave remainders on the
// row pairs, 1/8/9/17 samples on the 8-sample panel, and 70 rows test
// the default limit of 64. The first layer's W (and V) rows open with
// 1, 2^60, -2^60 against inputs opening with 1, 1, 1, so a sum taken in
// any but ascending column order moves a maximum; random predictors
// mask about half the rows, so a dropped mask moves one too.
TEST(QuantizedNetwork, BatchedCalibrationMatchesPerSampleForward) {
  struct Case {
    std::vector<std::size_t> sizes;
    std::vector<std::size_t> ranks;  ///< per hidden layer; 0 = none
  };
  const std::vector<Case> cases = {
      {{13, 11, 9, 5}, {3, 2}},
      {{13, 11, 9, 5}, {0, 0}},
      {{21, 17, 6, 15, 3}, {4, 0, 1}},
  };
  std::uint64_t seed = 40;
  for (const Case& c : cases) {
    Rng rng{++seed};
    Network net{c.sizes, rng};
    for (std::size_t l = 0; l < c.ranks.size(); ++l)
      if (c.ranks[l] > 0)
        net.set_predictor(l, Predictor::random(c.sizes[l + 1], c.sizes[l],
                                               c.ranks[l], rng));
    open_rows(net.weight(0));
    if (net.has_predictor(0)) open_rows(net.predictor(0).v());

    for (const std::size_t rows : {1u, 8u, 9u, 17u, 70u}) {
      const Matrix calib = opened_inputs(rows, c.sizes.front(), rng);

      const detail::CalibrationRanges batched =
          detail::calibration_ranges(net, calib, 64);
      const detail::CalibrationRanges expected =
          per_sample_ranges(net, calib, 64);
      EXPECT_EQ(batched.act_max, expected.act_max)
          << "sizes " << c.sizes.size() << " seed " << seed << " rows "
          << rows;
      EXPECT_EQ(batched.mid_max, expected.mid_max)
          << "sizes " << c.sizes.size() << " seed " << seed << " rows "
          << rows;
    }
  }
}

/// {300, 400, 300, 10} with rank-4 predictors: both hidden layers' W
/// cross the parallel-quantisation threshold, the output W does not.
/// Each weight matrix's largest magnitude sits in its last word, so a
/// format drawn from less than the whole matrix shows.
Network parallel_deployment_network() {
  static_assert(300 * 400 >= kParallelQuantizeWords);
  static_assert(10 * 300 < kParallelQuantizeWords);
  Rng rng{60};
  Network net{{300, 400, 300, 10}, rng};
  net.set_predictor(0, Predictor::random(400, 300, 4, rng));
  net.set_predictor(1, Predictor::random(300, 400, 4, rng));
  const auto plant_max_last = [](Matrix& m) { m.flat().back() = -40.0f; };
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l)
    plant_max_last(net.weight(l));
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    plant_max_last(net.predictor(l).u());
    plant_max_last(net.predictor(l).v());
  }
  return net;
}

/// Every word of `t`, read as row-major `m` (or as its transpose when
/// `transposed`), is choose_format(m) applied by Fixed16::quantize_raw.
void expect_quantized(const QuantizedTensor& t, const Matrix& m,
                      bool transposed, const char* what, std::size_t l) {
  const FixedPointFormat fmt = choose_format(m.flat());
  EXPECT_EQ(t.fmt, fmt) << what << " layer " << l;
  ASSERT_EQ(t.rows, transposed ? m.cols() : m.rows()) << what << " " << l;
  ASSERT_EQ(t.cols, transposed ? m.rows() : m.cols()) << what << " " << l;
  ASSERT_EQ(t.data.size(), m.size()) << what << " " << l;
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      if ((transposed ? t.at(c, r) : t.at(r, c)) !=
          Fixed16::quantize_raw(m(r, c), fmt))
        ++mismatches;
  EXPECT_EQ(mismatches, 0u) << what << " layer " << l;
}

// The constructor quantises each large W on a worker thread beside the
// caller's calibration. Every word and format must equal a reference
// built from public pieces, under the dispatched kernels (and AVX2
// calibration where the host has it) and under the scalar ones.
TEST(QuantizedNetwork, ParallelDeploymentMatchesSerialReference) {
  const Network net = parallel_deployment_network();
  Rng rng{61};
  Matrix calib(9, 300);
  for (float& v : calib.flat())
    v = rng.bernoulli(0.3) ? 0.0f : static_cast<float>(rng.normal(0.0, 2.0));
  const detail::CalibrationRanges ranges =
      detail::calibration_ranges(net, calib, 64);
  const auto format_of = [](double max_abs) {
    return choose_format(std::vector<float>{static_cast<float>(max_abs)});
  };

  for (const bool scalar : {false, true}) {
    force_scalar_kernels(scalar);
    const QuantizedNetwork q(net, calib);
    ASSERT_EQ(q.num_layers(), 3u);
    for (std::size_t l = 0; l < q.num_layers(); ++l) {
      SCOPED_TRACE(scalar ? "scalar kernels" : "dispatched kernels");
      const QuantizedLayer& layer = q.layer(l);
      expect_quantized(layer.w_t, net.weight(l), true, "w_t", l);
      EXPECT_EQ(layer.in_fmt, format_of(ranges.act_max[l])) << l;
      EXPECT_EQ(layer.out_fmt, format_of(ranges.act_max[l + 1])) << l;
      EXPECT_EQ(layer.is_output, l == 2);
      if (l == 2) {
        EXPECT_FALSE(layer.has_predictor());
        continue;
      }
      const Predictor& p = net.predictor(l);
      ASSERT_TRUE(layer.has_predictor() && layer.u_t && layer.v_t);
      expect_quantized(*layer.u, p.u(), false, "u", l);
      expect_quantized(*layer.u_t, p.u(), true, "u_t", l);
      expect_quantized(*layer.v_t, p.v(), true, "v_t", l);
      EXPECT_EQ(layer.mid_fmt, format_of(ranges.mid_max[l])) << l;
    }
  }
  force_scalar_kernels(false);
}

// A calibration matrix of the wrong width fails calibration's width
// check on the calling thread while workers quantise the large W; the
// constructor must join them and rethrow that error (a joinable
// std::thread would terminate the test instead).
TEST(QuantizedNetwork, ParallelDeploymentRethrowsCalibrationError) {
  const Network net = parallel_deployment_network();
  EXPECT_THROW(QuantizedNetwork(net, Matrix(4, 299)), std::invalid_argument);
}

}  // namespace
}  // namespace sparsenn
