#include "sim/schedule.hpp"

#include "common/check.hpp"

namespace sparsenn {

namespace {

/// How many of `num_rows` interleaved rows (or V columns) PE `pe` holds.
std::size_t rows_on_pe(std::size_t num_rows, std::size_t pe,
                       std::size_t num_pes) noexcept {
  return pe < num_rows ? (num_rows - pe + num_pes - 1) / num_pes : 0;
}

/// Rows pe, pe + P, pe + 2P, … of the row-major tensor `t`, viewed in
/// place. A PE without rows gets an empty view with no base, so no
/// pointer is formed past the buffer.
WordView interleaved_rows(const QuantizedTensor& t, std::size_t pe,
                          std::size_t num_pes) {
  const std::size_t rows = rows_on_pe(t.rows, pe, num_pes);
  return WordView{.base = rows > 0 ? t.data.data() + pe * t.cols : nullptr,
                  .rows = rows,
                  .cols = t.cols,
                  .row_stride = num_pes * t.cols,
                  .col_stride = 1};
}

}  // namespace

PeLayerSlice make_pe_slice(const QuantizedLayer& layer,
                           const ArchParams& params, std::size_t pe,
                           bool use_predictor) {
  expects(pe < params.num_pes, "PE id out of range");
  PeLayerSlice slice;
  slice.layer_input_dim = layer.in_dim();
  slice.layer_output_dim = layer.out_dim();
  slice.is_output = layer.is_output;
  slice.has_predictor =
      use_predictor && layer.has_predictor() && !layer.is_output;
  slice.rank = slice.has_predictor ? layer.rank() : 0;

  // Global row j = pe + r·P of input column c is w_t[c·m + j].
  const std::size_t rows = rows_on_pe(layer.out_dim(), pe, params.num_pes);
  slice.w_view = WordView{
      .base = rows > 0 ? layer.w_t.data.data() + pe : nullptr,
      .rows = rows,
      .cols = layer.in_dim(),
      .row_stride = params.num_pes,
      .col_stride = layer.out_dim()};

  slice.in_frac = layer.in_fmt.frac_bits;
  slice.out_frac = layer.out_fmt.frac_bits;
  slice.w_frac = layer.w_t.fmt.frac_bits;

  if (slice.has_predictor) {
    slice.u_frac = layer.u->fmt.frac_bits;
    slice.v_frac = layer.v_t->fmt.frac_bits;
    slice.mid_frac = layer.mid_fmt.frac_bits;
    slice.predictor_threshold_raw = layer.threshold_raw();
    // U by row (global row pe + r·P of u), V by column: row s of v_t is
    // column s·P + pe of V.
    slice.u_view = interleaved_rows(*layer.u, pe, params.num_pes);
    slice.v_view = interleaved_rows(*layer.v_t, pe, params.num_pes);
  }
  return slice;
}

}  // namespace sparsenn
