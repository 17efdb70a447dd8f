#pragma once
// The SparseNN processing element (paper Fig. 5).
//
// A PE owns an interleaved slice of every layer: the rows j of W and U
// with j mod num_pes == id, the columns j of V with j mod num_pes == id,
// and the activation registers for the same interleaving. One inference
// layer runs in up to three phases (Section V.D):
//
//   V phase — column-based: for each local nonzero input activation the
//     PE MACs one column of V into `rank` local partial sums (one MAC
//     per cycle), then streams the partial sums into the reduction tree.
//   U phase — row-based: with the broadcast V results s in hand, each
//     mapped U row takes `rank` MACs to produce t; the predictor bit
//     t > 0 lands in the 1-bit predictor register bank.
//   W phase — row-based with both sparsity types: local nonzero inputs
//     are injected into the H-tree; every delivered activation is
//     multiplied with the predicted-active mapped rows only (LNZD over
//     the predictor bank), accumulating into destination registers.
//
// The cycle loop lives in src/sim; the PE exposes per-cycle step
// methods, whose events the census (sim/census.hpp) counts. All
// arithmetic is int16/int64 fixed point and must match
// nn::QuantizedNetwork bit-for-bit.
//
// A PeLayerSlice is a bundle of read-only views into the quantised
// layer's own buffers: W into its column-major w_t, U into its
// row-major u and V into its column-major v_t, each strided so that it
// reads only this PE's interleaved rows or columns. Loading a layer
// binds views instead of copying weights, and the PE's per-phase
// scratch buffers are members reused across layers and inferences, so
// the steady-state cycle loop never touches the heap. The layer must
// stay alive while it simulates: a CompiledNetwork holds its own copy
// of the network's layers.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "arch/params.hpp"
#include "common/kernels.hpp"
#include "noc/flit.hpp"
#include "pe/act_queue.hpp"
#include "pe/memory.hpp"
#include "pe/regfile.hpp"

namespace sparsenn {

/// The slice of one layer mapped to one PE, already quantised. Views
/// only — copying the struct copies pointers, not weights.
struct PeLayerSlice {
  std::size_t layer_input_dim = 0;
  std::size_t layer_output_dim = 0;
  std::size_t rank = 0;
  bool has_predictor = false;
  bool is_output = false;

  /// The mapped W rows, w_view.rows × layer_input_dim: local row r is
  /// global row p + r·P (p the PE's id, P the PE count), and word
  /// (r, c) is W[p + r·P][c]. A strided view into the network's single
  /// column-major W (QuantizedLayer::w_t) — PE p's local row r of input
  /// column c is w_t[c·m + p + r·P] — so no W word is copied.
  WordView w_view;
  /// The mapped U rows, w_view.rows × rank: word (r, k) is
  /// U[p + r·P][k], viewed in QuantizedLayer::u (base u + p·rank, row
  /// stride P·rank). Empty without a predictor.
  WordView u_view;
  /// V columns for the local input slots, slots × rank: word (s, k) is
  /// V[k][s·P + p], viewed in QuantizedLayer::v_t (base v_t + p·rank,
  /// row stride P·rank). Empty without a predictor.
  WordView v_view;

  int in_frac = 9;
  int out_frac = 9;
  int mid_frac = 9;
  int w_frac = 9;
  int u_frac = 9;
  int v_frac = 9;

  /// Deploy-time prediction threshold in raw accumulator units: a row
  /// is predicted active when the U-phase accumulator exceeds this.
  std::int64_t predictor_threshold_raw = 0;
};

class ProcessingElement {
 public:
  ProcessingElement(std::size_t id, const ArchParams& params);

  std::size_t id() const noexcept { return id_; }

  /// Binds a layer slice to the local SRAMs (capacity-checked). The
  /// slice's backing storage must outlive the layer's simulation.
  void load_layer(const PeLayerSlice& slice);

  /// Writes the PE's interleaved share of the network input into the
  /// source register file (layer 0 only).
  void load_input(std::span<const std::int16_t> full_input);

  /// Layer boundary: destination regfile becomes the next source.
  void swap_regfiles();

  // ---- V phase ----
  void start_v_phase();
  bool v_compute_done() const noexcept {
    return v_input_cursor_ >= v_inputs_.size();
  }
  /// One cycle of local V MACs; no-op when compute is done. Inline —
  /// called for every PE every V-phase cycle.
  void step_v_compute() {
    if (v_compute_done()) return;
    const Flit& in = v_inputs_[v_input_cursor_];
    const std::size_t slot =
        static_cast<std::size_t>(in.index) / num_pes_;
    // One MAC: v[slot][k] * a, into partial k.
    const std::int16_t w = v_mem_.read_row_word(slot, v_rank_cursor_);
    v_partials_[v_rank_cursor_] +=
        std::int64_t{w} * std::int64_t{in.payload};
    if (++v_rank_cursor_ >= slice_.rank) {
      v_rank_cursor_ = 0;
      ++v_input_cursor_;
    }
  }
  /// Local V MAC cycles left before this PE's compute is done (its
  /// share of the deterministic MAC burst the event core runs up front
  /// and uses as the PE's wake time).
  std::size_t v_burst_cycles() const noexcept {
    return slice_.rank == 0
               ? 0
               : (v_inputs_.size() - v_input_cursor_) * slice_.rank -
                     v_rank_cursor_;
  }
  /// Executes exactly `k` step_v_compute() cycles in one shot through
  /// the vectorised column-MAC kernel — cursors and partial sums end
  /// bit-identical to k single steps.
  /// Precondition: k <= v_burst_cycles().
  void burst_v_compute(std::size_t k);
  /// Partial-sum injection (after local compute): one flit per row.
  bool has_partial_ready() const noexcept {
    return v_compute_done() && v_inject_cursor_ < v_partials_.size();
  }
  Flit peek_partial() const {
    expects(has_partial_ready(), "no partial sum ready");
    return Flit{.index = static_cast<std::uint32_t>(v_inject_cursor_),
                .payload = v_partials_[v_inject_cursor_],
                .source = static_cast<std::uint16_t>(id_)};
  }
  void pop_partial() {
    expects(has_partial_ready(), "no partial sum ready");
    ++v_inject_cursor_;
  }
  /// Broadcast V result arriving from the root (already rescaled).
  void receive_v_result(std::uint32_t row, std::int16_t value);

  // ---- U phase ----
  /// Runs the whole U phase; returns the exact cycle count this PE
  /// needs (rows × rank MACs at one per cycle).
  std::size_t run_u_phase();
  /// uv_off: mark every mapped row active instead of predicting.
  void force_all_rows_active();
  std::span<const std::uint8_t> predictor_bits() const noexcept {
    return predictor_bits_;
  }

  // ---- W phase ----
  void start_w_phase();
  bool has_injection() const noexcept {
    return w_inject_cursor_ < w_injections_.size();
  }
  const Flit& peek_injection() const {
    expects(has_injection(), "no injection pending");
    return w_injections_[w_inject_cursor_];
  }
  void pop_injection() {
    expects(has_injection(), "no injection pending");
    ++w_inject_cursor_;
  }
  bool injections_done() const noexcept {
    return w_inject_cursor_ >= w_injections_.size();
  }
  std::size_t queue_free_slots() const noexcept {
    return queue_.free_slots();
  }
  void enqueue_activation(const Flit& flit) { queue_.push(flit); }
  /// One consumption cycle; returns true if the PE did work. Inlined
  /// fast paths (busy countdown / idle) — the cycle loop calls this
  /// once per PE per cycle.
  bool step_w_consume() {
    if (w_busy_cycles_ > 0) {
      --w_busy_cycles_;
      return true;
    }
    if (queue_.empty()) return false;
    consume_front();
    return true;
  }
  bool w_done() const noexcept {
    return injections_done() && queue_.empty() && w_busy_cycles_ == 0;
  }

  /// The full W-phase injection list built by start_w_phase(), cursor
  /// independent — the event core concatenates every PE's list to know
  /// all activations the phase will deliver before simulating it.
  std::span<const Flit> w_injection_flits() const noexcept {
    return w_injections_;
  }
  /// Predicted-active mapped rows this layer (valid after
  /// start_w_phase()); the per-delivered-activation datapath occupancy
  /// is max(1, this).
  std::size_t w_active_row_count() const noexcept {
    return active_local_rows_.size();
  }
  /// Bulk W-phase datapath: each predicted-active mapped row takes its
  /// sum from `row_sums` (one int64 per global row of the layer:
  /// Σ W[row][c]·a_c over every delivered activation) — bit-identical
  /// to enqueueing and consuming the activations one cycle at a time,
  /// because int64 accumulation is exact and order-independent. The
  /// event core pairs this with its cycle-timing model, which never
  /// touches the PE.
  void apply_w_sums(std::span<const std::int64_t> row_sums);

  /// Rescales accumulators and writes the destination register file;
  /// returns (global index, value) pairs of the produced activations.
  /// The view is into a member buffer, valid until the next call.
  std::span<const std::pair<std::uint32_t, std::int16_t>> write_back();

  /// Local (slot, value) nonzeros of the source register file —
  /// exactly the LNZD scan output. The view is into a member buffer
  /// reused across calls, valid until the next call.
  std::span<const Flit> scan_source_nonzeros();

 private:
  /// The interleave shared by input slots and mapped rows: local slot
  /// or row r is global index r·P + id.
  std::size_t global_index_of_slot(std::size_t slot) const noexcept {
    return slot * num_pes_ + id_;
  }

  /// LNZD scan into a reusable buffer (clears, then fills).
  void scan_source_nonzeros_into(std::vector<Flit>& out);

  /// Slow path of step_w_consume(): pops the queue head and runs the
  /// LNZD-masked column MACs.
  void consume_front() {
    const Flit act = queue_.front();
    queue_.pop();
    expects(act.index < slice_.layer_input_dim,
            "activation index out of layer range");

    // Multiply with every predicted-active mapped row; the LNZD walks
    // the predictor bank one active row per cycle, so the datapath is
    // busy max(1, active_rows) cycles for this activation.
    const std::size_t n_active = active_local_rows_.size();
    if (n_active > 0) {
      const std::int16_t a = static_cast<std::int16_t>(act.payload);
      const WordView& w = w_mem_.view();
      const std::int16_t* col = w.base + act.index * w.col_stride;
      for (const std::uint32_t r : active_local_rows_) {
        w_accumulators_[r] +=
            std::int64_t{col[r * w.row_stride]} * std::int64_t{a};
      }
    }
    w_busy_cycles_ = n_active == 0 ? 0 : n_active - 1;
  }

  std::size_t id_;
  std::size_t num_pes_;
  ArchParams params_;
  /// Kernel table bound at load_layer() (common/kernels.hpp): one
  /// dispatch resolution per layer instead of one per MAC burst.
  const KernelTable* kern_ = &kernels();

  PingPongRegFiles regfiles_;
  ActQueue queue_;
  SramBank w_mem_;
  SramBank u_mem_;
  SramBank v_mem_;

  PeLayerSlice slice_;
  std::vector<std::uint8_t> predictor_bits_;  ///< per mapped row

  // V phase state
  std::vector<std::int64_t> v_partials_;
  std::vector<Flit> v_inputs_;        ///< local nonzero inputs to process
  std::size_t v_input_cursor_ = 0;    ///< which input
  std::size_t v_rank_cursor_ = 0;     ///< which MAC within the column
  std::size_t v_inject_cursor_ = 0;
  std::vector<std::int16_t> v_results_;

  // W phase state
  std::vector<std::int64_t> w_accumulators_;  ///< per mapped row
  std::vector<std::uint32_t> active_local_rows_;
  std::vector<Flit> w_injections_;
  std::size_t w_inject_cursor_ = 0;
  std::size_t w_busy_cycles_ = 0;

  // Reusable output buffers (capacity persists across layers).
  std::vector<Flit> scan_buffer_;
  std::vector<std::uint32_t> scan_idx_buffer_;  ///< kernel scan output
  std::vector<std::pair<std::uint32_t, std::int16_t>> write_back_buffer_;
};

}  // namespace sparsenn
