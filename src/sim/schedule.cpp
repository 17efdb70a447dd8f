#include "sim/schedule.hpp"

#include <algorithm>

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
  words.rows = rows_on_pe(layer.w.rows, pe, params.num_pes);
  words.w = words.rows * layer.w.cols;
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
                             std::vector<std::int16_t>& w_pool,
                             std::vector<std::int16_t>& u_pool,
                             std::vector<std::int16_t>& v_pool) {
  expects(pe < params.num_pes, "PE id out of range");
  const PeSliceWords words =
      pe_slice_words(layer, params, pe, use_predictor);
  expects(has_room(rows_pool, words.rows) && has_room(w_pool, words.w) &&
              has_room(u_pool, words.u) && has_room(v_pool, words.v),
          "slice pools must be pre-sized (an append would move them)");

  PeLayerSlice slice;
  slice.layer_input_dim = layer.w.cols;
  slice.layer_output_dim = layer.w.rows;
  slice.is_output = layer.is_output;
  slice.has_predictor = packs_predictor(layer, use_predictor);
  slice.rank = slice.has_predictor ? layer.rank() : 0;

  const std::size_t rows_begin = rows_pool.size();
  append_rows_for_pe(layer.w.rows, pe, params.num_pes, rows_pool);
  slice.global_rows = appended(rows_pool, rows_begin);

  const std::size_t w_begin = w_pool.size();
  for (const std::uint32_t r : slice.global_rows) {
    const auto row = layer.w.row(r);
    w_pool.insert(w_pool.end(), row.begin(), row.end());
  }
  slice.w_words = appended(w_pool, w_begin);

  slice.in_frac = layer.in_fmt.frac_bits;
  slice.out_frac = layer.out_fmt.frac_bits;
  slice.w_frac = layer.w.fmt.frac_bits;

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
  owned.w_words.reserve(words.w);
  owned.u_words.reserve(words.u);
  owned.v_words.reserve(words.v);
  owned.view = detail::append_pe_slice(layer, params, pe, use_predictor,
                                       owned.global_rows, owned.w_words,
                                       owned.u_words, owned.v_words);
  return owned;
}

ScheduleEstimate estimate_row_schedule(std::size_t rows, std::size_t nnz_in,
                                       const ArchParams& params) {
  const std::size_t per_pe =
      (rows + params.num_pes - 1) / params.num_pes;  // slowest PE
  ScheduleEstimate out;
  out.cycles = static_cast<std::uint64_t>(nnz_in) *
               std::max<std::size_t>(1, per_pe);
  const double useful = static_cast<double>(nnz_in) *
                        static_cast<double>(rows);
  const double offered = static_cast<double>(out.cycles) *
                         static_cast<double>(params.num_pes);
  out.pe_utilization = offered > 0.0 ? useful / offered : 0.0;
  return out;
}

ScheduleEstimate estimate_column_schedule(std::size_t rows,
                                          std::size_t nnz_in,
                                          const ArchParams& params) {
  // Local phase: each PE MACs its local nonzeros against its V columns,
  // rows MACs per nonzero; local nonzeros are nnz/P on average but the
  // slowest PE gates — assume balanced interleaving (ceil).
  const std::size_t local_nnz =
      (nnz_in + params.num_pes - 1) / params.num_pes;
  const std::uint64_t local_cycles =
      static_cast<std::uint64_t>(local_nnz) * rows;
  // Reduction: pipelined, one row per cycle after a tree-depth fill,
  // then the broadcast of results back down.
  const std::uint64_t reduce_cycles =
      rows + params.router_levels * 2 + params.router_pipeline_stages;
  ScheduleEstimate out;
  out.cycles = local_cycles + reduce_cycles;
  const double useful =
      static_cast<double>(nnz_in) * static_cast<double>(rows);
  const double offered = static_cast<double>(out.cycles) *
                         static_cast<double>(params.num_pes);
  out.pe_utilization = offered > 0.0 ? useful / offered : 0.0;
  return out;
}

}  // namespace sparsenn
