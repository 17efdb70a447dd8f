#pragma once
// 16-bit fixed-point deployment model of a trained network.
//
// This is the functional "golden model" of what SparseNN executes:
// the same quantised weights, the same integer MAC/rescale behaviour,
// the same predict-then-compute flow. The cycle-accurate simulator
// (src/sim) is verified to produce bit-identical activations — integer
// accumulation commutes, so the NoC's out-of-order delivery cannot
// change results, exactly the argument Section V.B makes.
//
// Formats are chosen by calibration: weights per-matrix from their
// value range, activations and predictor intermediates per-layer from
// one batched float forward pass over calibration samples
// (detail::calibration_ranges).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/fixed_point.hpp"
#include "nn/network.hpp"

namespace sparsenn {

/// A quantised matrix: row-major int16 words plus its Q format.
struct QuantizedTensor {
  std::vector<std::int16_t> data;
  std::size_t rows = 0;
  std::size_t cols = 0;
  FixedPointFormat fmt{};

  std::int16_t at(std::size_t r, std::size_t c) const noexcept {
    return data[r * cols + c];
  }
  std::span<const std::int16_t> row(std::size_t r) const noexcept {
    return {data.data() + r * cols, cols};
  }
};

/// One weight layer with its optional predictor factors.
struct QuantizedLayer {
  /// The layer's only copy of the m × n weights W, stored column-major:
  /// the n × m tensor whose row c is column c of W, so W[r][c] is
  /// w_t.at(c, r). The functional forward pass runs every matvec as
  /// input-sparse column-axpy sweeps over these contiguous columns —
  /// the hardware's own column-MAC schedule, and measurably faster
  /// than row dots here (gathered sparse row walks lose to contiguous
  /// axpy even at a few× the MAC count) — and every compiled image's
  /// per-PE W slice is a strided view into it (sim/compiled_network.hpp).
  QuantizedTensor w_t;
  std::optional<QuantizedTensor> u;     ///< m × r
  /// Column-major mirror of U (r × m) for the same column sweeps (short
  /// U rows defeat row SIMD); exact integer accumulation makes the
  /// reordering bit-identical to the row-major nonzero walk.
  std::optional<QuantizedTensor> u_t;
  /// The layer's only copy of the r × n predictor factor V, stored
  /// column-major like W: the n × r tensor whose row c is column c of
  /// V, so V[k][c] is v_t->at(c, k). The s = V·a sweep reads its
  /// columns, and a compiled image's PE slices view U by row in u and
  /// V by column in v_t.
  std::optional<QuantizedTensor> v_t;
  FixedPointFormat in_fmt{};            ///< format of incoming activations
  FixedPointFormat out_fmt{};           ///< format of produced activations
  FixedPointFormat mid_fmt{};           ///< format of s = V a
  bool is_output = false;
  /// Deploy-time prediction threshold θ: a row computes when
  /// U V a > θ instead of > 0. Raising θ trades accuracy for sparsity
  /// without retraining (extension of the paper's λ knob). Stored in
  /// real units; the comparison uses the raw fixed-point equivalent.
  double prediction_threshold = 0.0;

  /// θ in raw accumulator units (frac bits of U × frac bits of s).
  std::int64_t threshold_raw() const noexcept;

  bool has_predictor() const noexcept { return u.has_value(); }
  std::size_t rank() const noexcept { return u ? u->cols : 0; }
  /// m, the layer's output width (rows of W).
  std::size_t out_dim() const noexcept { return w_t.cols; }
  /// n, the layer's input width (columns of W).
  std::size_t in_dim() const noexcept { return w_t.rows; }
};

/// Rounds/shifts a raw accumulator with `from_frac` fractional bits to a
/// saturated int16 with `to_frac` fractional bits (the write-back shifter).
std::int16_t rescale_to_i16(std::int64_t acc, int from_frac,
                            int to_frac) noexcept;

/// Per-layer outputs of the quantised forward pass.
struct QuantizedLayerResult {
  std::vector<std::int16_t> activations;  ///< post ReLU + mask
  std::vector<std::uint8_t> mask;         ///< predictor bits (1 = compute)
  std::vector<std::int16_t> v_result;     ///< s = V a (raw i16 words)
};

namespace detail {

/// Activation ranges measured on calibration samples, floored at 1e-6.
struct CalibrationRanges {
  /// max |a(l)| per layer of units: the input, each hidden layer's
  /// masked activations, then the output logits (weight layers + 1).
  std::vector<double> act_max;
  /// max |V a| per weight layer (stays at the floor without a predictor).
  std::vector<double> mid_max;
};

/// The ranges the QuantizedNetwork constructor derives its activation
/// formats from: max |a| and max |V a| folded over
/// Network::forward_layer, layer by layer, for the first
/// min(rows, calibration_limit) rows of `calibration` — so every
/// maximum equals the one a forward() over those rows would give.
CalibrationRanges calibration_ranges(const Network& network,
                                     const Matrix& calibration,
                                     std::size_t calibration_limit);

}  // namespace detail

/// Weight matrices with at least this many words are quantised on a
/// worker thread of their own by the QuantizedNetwork constructor. On
/// the 4-vCPU AVX2 host one thread start and join took ≈38 µs (median
/// of 2000) and quantising a W of 2^16 words ≈165–185 µs (median of
/// 200), so a worker pays for itself about four times over here; at
/// 2^14 words (≈41–46 µs) it would not pay at all.
inline constexpr std::size_t kParallelQuantizeWords = std::size_t{1} << 16;

/// The deployable network image: a value that is cheap to copy. Every
/// copy shares one immutable layer list, built once by the
/// constructor, and set_prediction_threshold gives only the object it
/// is called on a new copy of its layers (copy-on-write). So whoever
/// holds a copy — a compiled image (sim/compiled_network.hpp), a
/// serving frontend's model table — keeps exactly the version it was
/// given, whatever later happens to the caller's object. Distinct
/// copies may be used from different threads freely; one object, like
/// any value, must not be assigned or re-thresholded while another
/// thread reads it.
class QuantizedNetwork {
 public:
  /// Quantises `network`, calibrating activation ranges on up to
  /// `calibration_limit` rows of `calibration` (N × n_in).
  ///
  /// Each W of at least kParallelQuantizeWords words is quantised on
  /// a worker thread of its own, while the calling thread calibrates
  /// and then quantises the small tensors (small W, U, V and their
  /// mirrors). At most std::thread::hardware_concurrency() threads
  /// run, the caller included; without a large W no thread starts and
  /// hardware_concurrency() is not called. Every word and format is
  /// the same for any thread count. An exception (such as the
  /// calibration width check's) is rethrown once every worker has
  /// been joined.
  QuantizedNetwork(const Network& network, const Matrix& calibration,
                   std::size_t calibration_limit = 64);

  // Only copy operations are declared, so a move copies the layer
  // reference: a moved-from network stays whole and safe to query.
  QuantizedNetwork(const QuantizedNetwork&) = default;
  QuantizedNetwork& operator=(const QuantizedNetwork&) = default;

  std::size_t num_layers() const noexcept { return layers_->size(); }
  const QuantizedLayer& layer(std::size_t l) const {
    return layers_->at(l);
  }

  /// Whether `other` shares this object's layers: it is a copy of this
  /// network (or this of it) and neither changed its threshold since.
  /// One version's compiled images serve all of its copies.
  bool same_version(const QuantizedNetwork& other) const noexcept {
    return layers_ == other.layers_;
  }

  std::vector<std::int16_t> quantize_input(
      std::span<const float> input) const;

  /// Allocation-free variant: quantises into `out` (cleared and
  /// refilled; capacity is reused across calls). Hot-path form used by
  /// the simulator's ResultArena entry point.
  void quantize_input_into(std::span<const float> input,
                           std::vector<std::int16_t>& out) const;

  /// Executes one layer exactly as the hardware would: V then U to get
  /// the predictor bits, then the masked W pass. With
  /// `use_predictor=false` every output row is computed (uv_off / EIE).
  QuantizedLayerResult forward_layer(std::size_t l,
                                     std::span<const std::int16_t> act,
                                     bool use_predictor) const;

  /// forward_layer writing into caller-owned storage (cleared and
  /// refilled; capacity reused across calls), with every MAC loop
  /// walking `nz_idx` — the ascending indices of the nonzero entries
  /// of `act` (the LNZD scan output), which the caller must supply
  /// exactly. Summing the nonzero terms in ascending order is
  /// bit-identical to the dense skip-zero loop; this is the single
  /// definition of the layer arithmetic shared by forward_layer and
  /// the analytic engine (sim/analytic_engine.hpp). With
  /// `use_predictor=false` (or no predictor), `v_result` is cleared
  /// and `mask` is all ones.
  void forward_layer_into(std::size_t l, std::span<const std::int16_t> act,
                          std::span<const std::uint32_t> nz_idx,
                          bool use_predictor,
                          std::vector<std::int16_t>& v_result,
                          std::vector<std::uint8_t>& mask,
                          std::vector<std::int16_t>& activations) const;

  /// Whole-network quantised inference; returns the output logits raw.
  std::vector<std::int16_t> infer_raw(std::span<const float> input,
                                      bool use_predictor = true) const;

  /// Dequantised logits, for accuracy checks against the float model.
  Vector infer(std::span<const float> input,
               bool use_predictor = true) const;

  /// Classification error (percent) of the quantised model on a span of
  /// (inputs, labels) — used to confirm negligible quantisation loss.
  double test_error_rate(const Matrix& inputs,
                         std::span<const int> labels,
                         bool use_predictor = true) const;

  /// Sets the deploy-time prediction threshold θ on every predictor
  /// layer (see QuantizedLayer::prediction_threshold) of a new copy of
  /// this object's layers; every other copy keeps the old version.
  void set_prediction_threshold(double threshold);

 private:
  std::shared_ptr<const std::vector<QuantizedLayer>> layers_;
};

}  // namespace sparsenn
