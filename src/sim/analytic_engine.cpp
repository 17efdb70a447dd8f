#include "sim/analytic_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/kernels.hpp"
#include "noc/htree.hpp"
#include "sim/census.hpp"
#include "sim/result_arena.hpp"
#include "sim/trace.hpp"

namespace sparsenn {

AnalyticEngine::AnalyticEngine(const ArchParams& params) : params_(params) {
  params_.validate();
}

SimResult AnalyticEngine::run(const CompiledNetwork& compiled,
                              std::span<const float> input,
                              ValidationMode /*validation*/) {
  // Validation is meaningless here: this engine *is* the golden
  // functional model the cycle backend validates against.
  SimResult result;
  std::vector<std::int16_t> input_scratch;
  run_into(compiled, input, input_scratch, result);
  return result;
}

const SimResult& AnalyticEngine::run(const CompiledNetwork& compiled,
                                     std::span<const float> input,
                                     ResultArena& arena,
                                     ValidationMode /*validation*/) {
  run_into(compiled, input, arena.input_scratch(), arena.result());
  return arena.result();
}

void AnalyticEngine::run_into(const CompiledNetwork& compiled,
                              std::span<const float> input,
                              std::vector<std::int16_t>& input_scratch,
                              SimResult& out) {
  // Chaos hook at the engine boundary (throw/delay only; result
  // corruption is injected by the serving layer, which owns the
  // client-visible result).
  (void)fault::point("engine.run");
  expects(compiled.num_pes() == params_.num_pes,
          "CompiledNetwork was built for a different PE count");
  const QuantizedNetwork& network = compiled.network();
  network.quantize_input_into(input, input_scratch);

  if (trace_) trace_->begin_inference();

  out.total_cycles = 0;
  out.layers.resize(compiled.num_layers());
  std::span<const std::int16_t> act{input_scratch};
  for (std::size_t l = 0; l < compiled.num_layers(); ++l) {
    LayerSimResult& layer = out.layers[l];
    run_layer_into(compiled, l, act, layer);
    out.total_cycles += layer.total_cycles;
    act = layer.activations;
  }
  out.output.assign(act.begin(), act.end());
}

void AnalyticEngine::run_layer_into(const CompiledNetwork& compiled,
                                    std::size_t l,
                                    std::span<const std::int16_t> act,
                                    LayerSimResult& result) {
  const QuantizedLayer& layer = compiled.network().layer(l);
  const std::size_t num_pes = params_.num_pes;
  const std::size_t m = layer.out_dim();
  const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };

  // --- Input census: the ascending nonzero index list (the LNZD scan
  // output — every MAC loop below walks it instead of scanning zero
  // slots) and its per-PE interleave (activation c lives on PE
  // c mod P — the row/column schedule of Section V.A), which gates
  // the slowest-PE terms below.
  // Worst case every activation is nonzero: after the first inference
  // the capacity covers the widest layer, so steady state never
  // reallocates (the bench reports the analytic allocs/inference).
  nz_idx_.resize(act.size());
  nz_idx_.resize(kernels().nonzero_scan_i16(act.data(), act.size(),
                                            nz_idx_.data()));
  pe_nnz_.assign(num_pes, 0);
  // num_pes is radix^levels — a power of two at any valid config with
  // radix 2/4/8 — so the interleave is a mask; keep the division for
  // exotic radices.
  if ((num_pes & (num_pes - 1)) == 0) {
    const std::size_t pe_mask = num_pes - 1;
    for (const std::uint32_t c : nz_idx_) ++pe_nnz_[c & pe_mask];
  } else {
    for (const std::uint32_t c : nz_idx_) ++pe_nnz_[c % num_pes];
  }
  const std::size_t nnz_in = nz_idx_.size();
  result.nnz_inputs = nnz_in;
  const std::size_t max_local_nnz =
      *std::max_element(pe_nnz_.begin(), pe_nnz_.end());

  const bool predict = compiled.use_predictor() && layer.has_predictor() &&
                       !layer.is_output;
  const std::size_t rank = predict ? layer.rank() : 0;

  // --- The layer itself: predict (s = V a, t = U s, bit = t > θ) then
  // the masked feedforward — QuantizedNetwork owns the one definition
  // of this fixed-point arithmetic, so the backends cannot drift.
  compiled.network().forward_layer_into(l, act, nz_idx_,
                                        compiled.use_predictor(),
                                        v_scratch_, mask_scratch_,
                                        result.activations);

  // Active rows and their per-PE interleave (row r lives on PE
  // r mod P) — gates the W-phase consume bound.
  pe_active_.assign(num_pes, 0);
  std::size_t active_rows = 0;
  for (std::size_t r = 0, pe = 0; r < m; ++r) {
    active_rows += mask_scratch_[r];
    pe_active_[pe] += mask_scratch_[r];
    if (++pe == num_pes) pe = 0;  // r mod num_pes without the divide
  }
  result.active_rows = active_rows;
  const std::size_t max_active =
      *std::max_element(pe_active_.begin(), pe_active_.end());
  result.max_pe_nnz_inputs = max_local_nnz;
  result.max_pe_active_rows = max_active;

  // --- Schedule math (closed-form cycle estimates; see the header).
  const std::size_t max_rows_per_pe = (m + num_pes - 1) / num_pes;
  // Up to the root and back down the multicast (noc/htree.hpp).
  const std::uint64_t tree_latency = htree_flight_cycles(params_);
  if (predict) {
    result.v_cycles = u64(max_local_nnz) * rank + u64(rank) +
                      tree_latency + params_.pe_pipeline_stages;
    // Identical to the cycle engine's U phase, which is already
    // analytic: the slowest PE's rows × rank MACs plus the flush.
    result.u_cycles =
        u64(max_rows_per_pe) * rank + params_.pe_pipeline_stages;
  } else {
    result.v_cycles = 0;
    result.u_cycles = 0;
  }
  // W phase: the root serialises one delivered activation per cycle;
  // each PE multiplies every delivery with its predicted-active rows.
  // With no nonzero input nothing enters the tree, and the phase is
  // the pipeline flush alone.
  const std::uint64_t w_work = u64(nnz_in) * u64(max_active);
  result.w_cycles =
      (nnz_in == 0 ? 0 : std::max(w_work, u64(nnz_in)) + tree_latency) +
      params_.pe_pipeline_stages;
  result.total_cycles =
      result.v_cycles + result.u_cycles + result.w_cycles;

  // --- Events and NoC flit counts from the census of the per-PE work;
  // contention terms (conflicts/stalls/occupancy) stay zero — the
  // analytic model assumes a congestion-free fabric.
  const LayerCensus census = take_census(
      params_, {m, rank, pe_nnz_, pe_active_}, result.total_cycles);
  result.events = census.events;
  result.v_noc = census.v_noc;
  result.w_noc = census.w_noc;

  if (trace_) record_layer_trace(*trace_, l, result);
}

}  // namespace sparsenn
