#include "pe/pe.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/quantized.hpp"

namespace sparsenn {

ProcessingElement::ProcessingElement(std::size_t id,
                                     const ArchParams& params)
    : id_(id),
      num_pes_(params.num_pes),
      params_(params),
      regfiles_(params.act_regs_per_pe),
      queue_(params.act_queue_depth),
      w_mem_(params.w_mem_kb_per_pe),
      u_mem_(params.u_mem_kb_per_pe),
      v_mem_(params.v_mem_kb_per_pe) {
  expects(id < params.num_pes, "PE id out of range");
}

void ProcessingElement::load_layer(const PeLayerSlice& slice) {
  expects(slice.layer_input_dim <= params_.max_activations(),
          "layer input exceeds activation register capacity");
  expects(slice.layer_output_dim <= params_.max_activations(),
          "layer output exceeds activation register capacity");
  kern_ = &kernels();  // re-resolve once per layer (picks up overrides)
  slice_ = slice;
  w_mem_.load(slice.w_view);
  u_mem_.load(slice.u_view);
  v_mem_.load(slice.v_view);
  predictor_bits_.assign(slice.w_view.rows, 0);
  v_results_.assign(slice.rank, 0);

  // Upper-bound the per-phase scratch so the phases below never grow a
  // buffer mid-inference: the scan outputs hold at most one flit per
  // local input slot, the row-indexed buffers at most one entry per
  // mapped row. Reserving here (no-op once warm) makes the steady
  // state allocation-free for every input, not just for inputs no
  // denser than those already seen.
  const std::size_t rows = slice.w_view.rows;
  const std::size_t slots =
      (slice.layer_input_dim + num_pes_ - 1) / num_pes_;
  scan_buffer_.reserve(slots);
  scan_idx_buffer_.reserve(std::max<std::size_t>(1, slots));
  v_inputs_.reserve(slots);
  w_injections_.reserve(slots);
  v_partials_.reserve(slice.rank);
  w_accumulators_.reserve(rows);
  active_local_rows_.reserve(rows);
  write_back_buffer_.reserve(rows);
}

void ProcessingElement::load_input(
    std::span<const std::int16_t> full_input) {
  regfiles_.source().clear();
  for (std::size_t slot = 0;
       global_index_of_slot(slot) < full_input.size() &&
       slot < regfiles_.source().size();
       ++slot) {
    regfiles_.source().write(slot, full_input[global_index_of_slot(slot)]);
  }
}

void ProcessingElement::swap_regfiles() { regfiles_.swap(); }

void ProcessingElement::scan_source_nonzeros_into(std::vector<Flit>& out) {
  out.clear();
  const auto raw = regfiles_.source().raw();
  // Slots to scan: bounded by the layer's interleave share, the file
  // size, and the first slot whose global index leaves the layer
  // (global = slot·P + id is monotone in slot).
  const std::size_t slots =
      (slice_.layer_input_dim + num_pes_ - 1) / num_pes_;
  std::size_t n = std::min(slots, raw.size());
  if (id_ >= slice_.layer_input_dim) {
    n = 0;
  } else {
    n = std::min(n, (slice_.layer_input_dim - id_ + num_pes_ - 1) /
                        num_pes_);
  }
  scan_idx_buffer_.resize(n);
  const std::size_t count =
      kern_->nonzero_scan_i16(raw.data(), n, scan_idx_buffer_.data());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = scan_idx_buffer_[i];
    out.push_back(Flit{
        .index = static_cast<std::uint32_t>(global_index_of_slot(slot)),
        .payload = raw[slot],
        .source = static_cast<std::uint16_t>(id_)});
  }
}

std::span<const Flit> ProcessingElement::scan_source_nonzeros() {
  scan_source_nonzeros_into(scan_buffer_);
  return scan_buffer_;
}

// ---------------- V phase ----------------

void ProcessingElement::start_v_phase() {
  ensures(slice_.has_predictor, "V phase requires a predictor slice");
  v_partials_.assign(slice_.rank, 0);
  scan_source_nonzeros_into(v_inputs_);
  v_input_cursor_ = 0;
  v_rank_cursor_ = 0;
  v_inject_cursor_ = 0;
  v_results_.assign(slice_.rank, 0);
}

void ProcessingElement::burst_v_compute(std::size_t k) {
  while (k > 0) {
    const Flit& in = v_inputs_[v_input_cursor_];
    const std::size_t slot = static_cast<std::size_t>(in.index) / num_pes_;
    const std::size_t take = std::min(slice_.rank - v_rank_cursor_, k);
    const auto row = v_mem_.row(slot);
    kern_->axpy_i16_i64(v_partials_.data() + v_rank_cursor_,
                        row.data() + v_rank_cursor_,
                        static_cast<std::int16_t>(in.payload), take);
    v_rank_cursor_ += take;
    k -= take;
    if (v_rank_cursor_ >= slice_.rank) {
      v_rank_cursor_ = 0;
      ++v_input_cursor_;
    }
  }
}

void ProcessingElement::receive_v_result(std::uint32_t row,
                                         std::int16_t value) {
  expects(row < v_results_.size(), "V result row out of range");
  v_results_[row] = value;
}

// ---------------- U phase ----------------

std::size_t ProcessingElement::run_u_phase() {
  ensures(slice_.has_predictor, "U phase requires a predictor slice");
  const std::size_t rows = slice_.w_view.rows;
  // Row MACs + predictor-bit pack in one kernel sweep over the U bank
  // (rows × rank words at the view's row stride) — identical to the
  // per-word loop.
  if (rows > 0 && slice_.rank > 0) {
    const WordView& u = u_mem_.view();
    kern_->predict_bits_i16(u.base, u.row_stride, rows, slice_.rank,
                            v_results_.data(),
                            slice_.predictor_threshold_raw,
                            predictor_bits_.data());
  } else {
    for (std::size_t r = 0; r < rows; ++r)
      predictor_bits_[r] = 0 > slice_.predictor_threshold_raw ? 1 : 0;
  }
  return rows * slice_.rank;
}

void ProcessingElement::force_all_rows_active() {
  predictor_bits_.assign(slice_.w_view.rows, 1);
}

// ---------------- W phase ----------------

void ProcessingElement::start_w_phase() {
  w_accumulators_.assign(slice_.w_view.rows, 0);
  active_local_rows_.clear();
  for (std::size_t r = 0; r < predictor_bits_.size(); ++r) {
    if (predictor_bits_[r])
      active_local_rows_.push_back(static_cast<std::uint32_t>(r));
  }
  scan_source_nonzeros_into(w_injections_);
  w_inject_cursor_ = 0;
  w_busy_cycles_ = 0;
}

void ProcessingElement::apply_w_sums(std::span<const std::int64_t> row_sums) {
  for (const std::uint32_t r : active_local_rows_)
    w_accumulators_[r] = row_sums[global_index_of_slot(r)];
}

std::span<const std::pair<std::uint32_t, std::int16_t>>
ProcessingElement::write_back() {
  regfiles_.destination().clear();
  write_back_buffer_.clear();
  const int from_frac = slice_.in_frac + slice_.w_frac;
  for (std::size_t r = 0; r < slice_.w_view.rows; ++r) {
    std::int16_t value = 0;
    if (predictor_bits_.empty() || predictor_bits_[r]) {
      value = rescale_to_i16(w_accumulators_.empty() ? 0
                                                     : w_accumulators_[r],
                             from_frac, slice_.out_frac);
      if (!slice_.is_output) value = std::max<std::int16_t>(value, 0);
    }
    regfiles_.destination().write(r, value);
    write_back_buffer_.emplace_back(
        static_cast<std::uint32_t>(global_index_of_slot(r)), value);
  }
  return write_back_buffer_;
}

}  // namespace sparsenn
