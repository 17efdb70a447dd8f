#include "nn/quantized.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/fork_join.hpp"
#include "common/kernels.hpp"
#include "tensor/ops.hpp"

namespace sparsenn {
namespace {

/// Per-thread 64-bit accumulator bank for the column-sweep forward
/// pass (thread-local so a shared const QuantizedNetwork stays safe to
/// call from concurrent BatchRunner workers; capacity persists, so the
/// steady state stays allocation-free).
thread_local std::vector<std::int64_t> t_acc64;

/// Quantises `in` into `out` through the dispatched kernel, which is
/// bit-identical to Fixed16::quantize_raw for the power-of-two scales
/// every FixedPointFormat has.
void quantize_into(std::span<const float> in, FixedPointFormat fmt,
                   std::vector<std::int16_t>& out) {
  out.resize(in.size());
  kernels().quantize_f32_i16(in.data(), in.size(),
                             static_cast<float>(fmt.scale()), out.data());
}

QuantizedTensor quantize_matrix(const Matrix& m, FixedPointFormat fmt) {
  QuantizedTensor out;
  out.rows = m.rows();
  out.cols = m.cols();
  out.fmt = fmt;
  quantize_into(m.flat(), out.fmt, out.data);
  return out;
}

/// The format of a calibrated range: the maximum is rounded to float
/// first, as it would be in a float span choose_format scans.
FixedPointFormat format_for_max(double max_abs) {
  return format_for_max_abs(static_cast<float>(max_abs));
}

/// Quantises `m` in `fmt` straight into `out` in its column-major
/// layout: the cols × rows tensor whose row c is column c of `m`, in
/// one tiled pass. `out.data` is only resized, so capacity reserved
/// beforehand is kept. Each tile's row segments go through the
/// dispatched kernel into an L1-resident block, which is then written
/// out one output row at a time, so the columns being written stay
/// cache-resident (a plain row-at-a-time scatter misses on nearly
/// every store at paper sizes). Bit-identical to quantising row-major
/// and then transposing: every word comes from the same elementwise
/// kernel.
void quantize_transposed(const Matrix& m, FixedPointFormat fmt,
                         QuantizedTensor& out) {
  out.rows = m.cols();
  out.cols = m.rows();
  out.fmt = fmt;
  out.data.resize(m.size());
  const float scale = static_cast<float>(out.fmt.scale());
  const KernelTable& kern = kernels();
  constexpr std::size_t kTile = 64;
  std::array<std::int16_t, kTile * kTile> block{};
  for (std::size_t r0 = 0; r0 < m.rows(); r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, m.rows());
    for (std::size_t c0 = 0; c0 < m.cols(); c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, m.cols());
      for (std::size_t r = r0; r < r1; ++r)
        kern.quantize_f32_i16(m.row(r).data() + c0, c1 - c0, scale,
                              block.data() + (r - r0) * kTile);
      for (std::size_t c = c0; c < c1; ++c) {
        std::int16_t* col = out.data.data() + c * m.rows();
        for (std::size_t r = r0; r < r1; ++r)
          col[r] = block[(r - r0) * kTile + (c - c0)];
      }
    }
  }
}

/// W of the given layer, in its own format.
void quantize_weight(const Network& network, std::size_t l,
                     QuantizedTensor& out) {
  const Matrix& w = network.weight(l);
  quantize_transposed(w, choose_format(w.flat()), out);
}

}  // namespace

std::int64_t QuantizedLayer::threshold_raw() const noexcept {
  if (!has_predictor()) return 0;
  const double scale =
      std::ldexp(1.0, u->fmt.frac_bits + mid_fmt.frac_bits);
  return static_cast<std::int64_t>(prediction_threshold * scale);
}

std::int16_t rescale_to_i16(std::int64_t acc, int from_frac,
                            int to_frac) noexcept {
  const int shift = from_frac - to_frac;
  std::int64_t shifted = acc;
  if (shift > 0) {
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    shifted = acc >= 0 ? (acc + half) >> shift : -((-acc + half) >> shift);
  } else if (shift < 0) {
    shifted = acc << (-shift);
  }
  return static_cast<std::int16_t>(
      std::clamp<std::int64_t>(shifted, -32768, 32767));
}

namespace detail {

CalibrationRanges calibration_ranges(const Network& network,
                                     const Matrix& calibration,
                                     std::size_t calibration_limit) {
  expects(calibration.cols() == network.layer_sizes().front(),
          "calibration data dimension mismatch");
  const std::size_t samples =
      std::min(calibration.rows(), calibration_limit);
  expects(samples > 0, "need at least one calibration sample");

  const std::size_t nl = network.num_weight_layers();
  CalibrationRanges ranges{std::vector<double>(nl + 1, 1e-6),
                           std::vector<double>(nl, 1e-6)};
  const auto fold_max = [](double& max_abs, const Matrix& m) {
    for (const float v : m.flat())
      max_abs = std::max(max_abs, std::abs(double{v}));
  };

  // All samples advance through the network's forward pass together,
  // one layer at a time, so each weight is read once per matvec_rows
  // panel rather than once per sample. Row i of every matrix is
  // sample i.
  Matrix a(samples, calibration.cols());
  std::copy_n(calibration.flat().begin(), a.size(), a.flat().begin());
  for (std::size_t l = 0; l < nl; ++l) {
    fold_max(ranges.act_max[l], a);
    LayerForward step = network.forward_layer(l, a);
    fold_max(ranges.mid_max[l], step.s);  // empty without a predictor
    a = std::move(step.a);
  }
  fold_max(ranges.act_max[nl], a);
  return ranges;
}

}  // namespace detail

QuantizedNetwork::QuantizedNetwork(const Network& network,
                                   const Matrix& calibration,
                                   std::size_t calibration_limit) {
  auto owned = std::make_shared<std::vector<QuantizedLayer>>(
      network.num_weight_layers());
  std::vector<QuantizedLayer>& layers = *owned;
  const std::size_t nl = layers.size();
  const auto is_large = [&](std::size_t l) {
    return network.weight(l).size() >= kParallelQuantizeWords;
  };
  std::vector<std::size_t> large;  // layers whose W gets a task of its own
  for (std::size_t l = 0; l < nl; ++l) {
    if (!is_large(l)) continue;
    large.push_back(l);
    // Allocated here, not on the worker: glibc would serve a worker's
    // malloc from a per-thread arena, which keeps what the buffer frees
    // and so raises the process's peak RSS on every redeployment.
    layers[l].w_t.data.reserve(network.weight(l).size());
  }
  const std::size_t threads =
      large.empty() ? 1
                    : std::max(1u, std::thread::hardware_concurrency());

  // Task 0, on the calling thread: calibration, then every small
  // tensor. Task k > 0: the k-th large W. Every task writes only its
  // own members of `layers`, so no word depends on the thread count.
  fork_join(1 + large.size(), threads, [&](std::size_t task) {
    if (task > 0) {
      const std::size_t l = large[task - 1];
      quantize_weight(network, l, layers[l].w_t);
      return;
    }
    const detail::CalibrationRanges ranges =
        detail::calibration_ranges(network, calibration, calibration_limit);
    for (std::size_t l = 0; l < nl; ++l) {
      QuantizedLayer& q = layers[l];
      if (!is_large(l)) quantize_weight(network, l, q.w_t);
      q.is_output = (l + 1 == nl);
      q.in_fmt = format_for_max(ranges.act_max[l]);
      q.out_fmt = format_for_max(ranges.act_max[l + 1]);
      if (!q.is_output && network.has_predictor(l)) {
        const Predictor& p = network.predictor(l);
        const FixedPointFormat u_fmt = choose_format(p.u().flat());
        const FixedPointFormat v_fmt = choose_format(p.v().flat());
        q.u = quantize_matrix(p.u(), u_fmt);
        quantize_transposed(p.u(), u_fmt, q.u_t.emplace());
        quantize_transposed(p.v(), v_fmt, q.v_t.emplace());
        q.mid_fmt = format_for_max(ranges.mid_max[l]);
      }
    }
  });
  layers_ = std::move(owned);
}

std::vector<std::int16_t> QuantizedNetwork::quantize_input(
    std::span<const float> input) const {
  std::vector<std::int16_t> out;
  quantize_input_into(input, out);
  return out;
}

void QuantizedNetwork::quantize_input_into(
    std::span<const float> input, std::vector<std::int16_t>& out) const {
  expects(!layers_->empty(), "empty network");
  expects(input.size() == layers_->front().in_dim(),
          "input dimension mismatch");
  quantize_into(input, layers_->front().in_fmt, out);
}

QuantizedLayerResult QuantizedNetwork::forward_layer(
    std::size_t l, std::span<const std::int16_t> act,
    bool use_predictor) const {
  // One LNZD-style scan up front; every matrix loop then walks only
  // the nonzero terms (input-sparsity skip, as in hardware).
  std::vector<std::uint32_t> nz_idx(act.size());
  nz_idx.resize(
      kernels().nonzero_scan_i16(act.data(), act.size(), nz_idx.data()));

  QuantizedLayerResult out;
  forward_layer_into(l, act, nz_idx, use_predictor, out.v_result,
                     out.mask, out.activations);
  return out;
}

void QuantizedNetwork::forward_layer_into(
    std::size_t l, std::span<const std::int16_t> act,
    std::span<const std::uint32_t> nz_idx, bool use_predictor,
    std::vector<std::int16_t>& v_result, std::vector<std::uint8_t>& mask,
    std::vector<std::int16_t>& activations) const {
  const QuantizedLayer& q = layers_->at(l);
  expects(act.size() == q.in_dim(), "activation dimension mismatch");

  const std::size_t m = q.out_dim();
  const KernelTable& kern = kernels();

  // Every matvec runs the hardware's input-sparse column-MAC
  // schedule over a transposed mirror: the whole-matvec kernel tiles
  // the accumulator bank in registers across all nonzero columns, and
  // narrow banks (rank-wide V results, below one tile) fall back to
  // fused pair sweeps. Integer accumulation is exact in any order, so
  // this is bit-identical to walking each row's nonzero terms; rows
  // that end up masked simply carry unused accumulator values.
  std::vector<std::int64_t>& acc = t_acc64;
  const auto sparse_matvec = [&](const QuantizedTensor& cols,
                                 std::size_t width) {
    acc.assign(width, 0);
    kern.sparse_matvec_i16_i64(acc.data(), cols.data.data(), width,
                               nz_idx.data(), nz_idx.size(), act.data());
  };

  // --- Prediction phase: s = V a, t = U s, bit = t > 0 ---
  if (use_predictor && q.has_predictor() && !q.is_output) {
    const QuantizedTensor& v_t = *q.v_t;
    const QuantizedTensor& u_t = *q.u_t;
    const std::size_t rank = v_t.cols;
    const int s_from_frac = q.in_fmt.frac_bits + v_t.fmt.frac_bits;

    sparse_matvec(v_t, rank);
    v_result.assign(rank, 0);
    for (std::size_t r = 0; r < rank; ++r)
      v_result[r] =
          rescale_to_i16(acc[r], s_from_frac, q.mid_fmt.frac_bits);

    // t = U s over the transposed mirror, skipping zero s terms (zero
    // terms contribute exactly zero — pure speed, never results).
    thread_local std::vector<std::uint32_t> t_s_idx;
    t_s_idx.clear();
    t_s_idx.reserve(rank);
    for (std::size_t k = 0; k < rank; ++k)
      if (v_result[k] != 0)
        t_s_idx.push_back(static_cast<std::uint32_t>(k));
    acc.assign(m, 0);
    kern.sparse_matvec_i16_i64(acc.data(), u_t.data.data(), m,
                               t_s_idx.data(), t_s_idx.size(),
                               v_result.data());
    mask.assign(m, 0);
    const std::int64_t threshold = q.threshold_raw();
    for (std::size_t r = 0; r < m; ++r)
      mask[r] = acc[r] > threshold ? 1 : 0;
  } else {
    v_result.clear();
    mask.assign(m, 1);  // uv_off: every row computed
  }

  // --- Feedforward phase: masked rows of W, input-sparse MACs ---
  const int w_from_frac = q.in_fmt.frac_bits + q.w_t.fmt.frac_bits;
  sparse_matvec(q.w_t, m);
  activations.assign(m, 0);
  for (std::size_t r = 0; r < m; ++r) {
    if (!mask[r]) continue;
    std::int16_t y =
        rescale_to_i16(acc[r], w_from_frac, q.out_fmt.frac_bits);
    if (!q.is_output) y = std::max<std::int16_t>(y, 0);  // ReLU
    activations[r] = y;
  }
}

std::vector<std::int16_t> QuantizedNetwork::infer_raw(
    std::span<const float> input, bool use_predictor) const {
  std::vector<std::int16_t> act = quantize_input(input);
  for (std::size_t l = 0; l < layers_->size(); ++l)
    act = forward_layer(l, act, use_predictor).activations;
  return act;
}

Vector QuantizedNetwork::infer(std::span<const float> input,
                               bool use_predictor) const {
  const std::vector<std::int16_t> raw = infer_raw(input, use_predictor);
  const std::vector<float> deq = dequantize(raw, layers_->back().out_fmt);
  return Vector(deq.begin(), deq.end());
}

void QuantizedNetwork::set_prediction_threshold(double threshold) {
  auto layers = std::make_shared<std::vector<QuantizedLayer>>(*layers_);
  for (QuantizedLayer& layer : *layers)
    if (layer.has_predictor()) layer.prediction_threshold = threshold;
  layers_ = std::move(layers);
}

double QuantizedNetwork::test_error_rate(const Matrix& inputs,
                                         std::span<const int> labels,
                                         bool use_predictor) const {
  expects(inputs.rows() == labels.size(), "inputs/labels size mismatch");
  expects(!labels.empty(), "empty evaluation set");
  std::size_t errors = 0;
  for (std::size_t i = 0; i < inputs.rows(); ++i) {
    const Vector logits = infer(inputs.row(i), use_predictor);
    if (argmax(logits) != static_cast<std::size_t>(labels[i])) ++errors;
  }
  return 100.0 * static_cast<double>(errors) /
         static_cast<double>(labels.size());
}

}  // namespace sparsenn
