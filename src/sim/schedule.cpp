#include "sim/schedule.hpp"

#include "common/check.hpp"

namespace sparsenn {

namespace {

/// The single definition of the row-interleave map: global row j
/// belongs to PE (j mod P). Appends PE `pe`'s rows to `out`.
void append_rows_for_pe(std::size_t num_rows, std::size_t pe,
                        std::size_t num_pes,
                        std::vector<std::uint32_t>& out) {
  for (std::size_t j = pe; j < num_rows; j += num_pes)
    out.push_back(static_cast<std::uint32_t>(j));
}

/// How many of `num_rows` interleaved rows (or V columns) PE `pe` holds.
std::size_t rows_on_pe(std::size_t num_rows, std::size_t pe,
                       std::size_t num_pes) noexcept {
  return pe < num_rows ? (num_rows - pe + num_pes - 1) / num_pes : 0;
}

bool packs_predictor(const QuantizedLayer& layer,
                     bool use_predictor) noexcept {
  return use_predictor && layer.has_predictor() && !layer.is_output;
}

template <class T>
bool has_room(const std::vector<T>& pool, std::size_t words) noexcept {
  return pool.capacity() - pool.size() >= words;
}

/// The view of everything appended to `pool` since size `begin`.
template <class T>
std::span<const T> appended(const std::vector<T>& pool, std::size_t begin) {
  return {pool.data() + begin, pool.size() - begin};
}

}  // namespace

std::vector<std::uint32_t> rows_for_pe(std::size_t num_rows,
                                       std::size_t pe,
                                       std::size_t num_pes) {
  expects(pe < num_pes, "PE id out of range");
  std::vector<std::uint32_t> rows;
  append_rows_for_pe(num_rows, pe, num_pes, rows);
  return rows;
}

namespace detail {

PeSliceWords pe_slice_words(const QuantizedLayer& layer,
                            const ArchParams& params, std::size_t pe,
                            bool use_predictor) {
  PeSliceWords words;
  words.rows = rows_on_pe(layer.out_dim(), pe, params.num_pes);
  if (packs_predictor(layer, use_predictor)) {
    words.u = words.rows * layer.rank();
    words.v = rows_on_pe(layer.v->cols, pe, params.num_pes) * layer.rank();
  }
  return words;
}

PeLayerSlice append_pe_slice(const QuantizedLayer& layer,
                             const ArchParams& params, std::size_t pe,
                             bool use_predictor,
                             std::vector<std::uint32_t>& rows_pool,
                             std::vector<std::int16_t>& u_pool,
                             std::vector<std::int16_t>& v_pool) {
  expects(pe < params.num_pes, "PE id out of range");
  const PeSliceWords words =
      pe_slice_words(layer, params, pe, use_predictor);
  expects(has_room(rows_pool, words.rows) && has_room(u_pool, words.u) &&
              has_room(v_pool, words.v),
          "slice pools must be pre-sized (an append would move them)");

  PeLayerSlice slice;
  slice.layer_input_dim = layer.in_dim();
  slice.layer_output_dim = layer.out_dim();
  slice.is_output = layer.is_output;
  slice.has_predictor = packs_predictor(layer, use_predictor);
  slice.rank = slice.has_predictor ? layer.rank() : 0;

  const std::size_t rows_begin = rows_pool.size();
  append_rows_for_pe(layer.out_dim(), pe, params.num_pes, rows_pool);
  slice.global_rows = appended(rows_pool, rows_begin);

  // Global row j = pe + r·P of input column c is w_t[c·m + j]. A PE
  // without rows gets an empty view with no base, so no pointer is
  // formed past the buffer.
  slice.w_view = WordView{
      .base = words.rows > 0 ? layer.w_t.data.data() + pe : nullptr,
      .rows = words.rows,
      .cols = layer.in_dim(),
      .row_stride = params.num_pes,
      .col_stride = layer.out_dim()};

  slice.in_frac = layer.in_fmt.frac_bits;
  slice.out_frac = layer.out_fmt.frac_bits;
  slice.w_frac = layer.w_t.fmt.frac_bits;

  if (slice.has_predictor) {
    const QuantizedTensor& u = *layer.u;
    const QuantizedTensor& v = *layer.v;
    slice.u_frac = u.fmt.frac_bits;
    slice.v_frac = v.fmt.frac_bits;
    slice.mid_frac = layer.mid_fmt.frac_bits;
    slice.predictor_threshold_raw = layer.threshold_raw();

    const std::size_t u_begin = u_pool.size();
    for (const std::uint32_t r : slice.global_rows) {
      const auto row = u.row(r);
      u_pool.insert(u_pool.end(), row.begin(), row.end());
    }
    slice.u_words = appended(u_pool, u_begin);

    // Column-based: column j of V (j ≡ pe mod P), one stride-r record
    // per local input slot.
    const std::size_t v_begin = v_pool.size();
    for (std::size_t j = pe; j < v.cols; j += params.num_pes) {
      for (std::size_t k = 0; k < v.rows; ++k)
        v_pool.push_back(v.at(k, j));
    }
    slice.v_words = appended(v_pool, v_begin);
  }
  return slice;
}

}  // namespace detail

OwnedPeSlice make_pe_slice(const QuantizedLayer& layer,
                           const ArchParams& params, std::size_t pe,
                           bool use_predictor) {
  const detail::PeSliceWords words =
      detail::pe_slice_words(layer, params, pe, use_predictor);
  OwnedPeSlice owned;
  owned.global_rows.reserve(words.rows);
  owned.u_words.reserve(words.u);
  owned.v_words.reserve(words.v);
  owned.view = detail::append_pe_slice(layer, params, pe, use_predictor,
                                       owned.global_rows, owned.u_words,
                                       owned.v_words);
  return owned;
}

}  // namespace sparsenn
