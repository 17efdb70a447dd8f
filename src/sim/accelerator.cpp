#include "sim/accelerator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "sim/census.hpp"
#include "sim/result_arena.hpp"

namespace sparsenn {

const char* to_string(SteppingMode mode) noexcept {
  switch (mode) {
    case SteppingMode::kPerCycle:
      return "per_cycle";
    case SteppingMode::kEvent:
      return "event";
  }
  return "unknown";
}

AcceleratorSim::AcceleratorSim(const ArchParams& params)
    : params_(params),
      pe_nnz_(params.num_pes),
      pe_active_(params.num_pes),
      v_tree_(params_, RouterMode::kAccumulate),   // ctor validates params
      w_tree_(params_, RouterMode::kArbitrate),
      broadcast_(params_.router_levels),
      event_core_(params_) {
  params_.validate();
  pes_.reserve(params_.num_pes);
  for (std::size_t i = 0; i < params_.num_pes; ++i)
    pes_.emplace_back(i, params_);
}

SimResult AcceleratorSim::run(const QuantizedNetwork& network,
                              std::span<const float> input,
                              bool use_predictor) {
  // One-shot compile: the same slicing work the seed engine did per
  // layer, done up front; validation stays on, like the seed engine.
  const CompiledNetwork compiled(network, params_, use_predictor);
  return run(compiled, input, ValidationMode::kFull);
}

SimResult AcceleratorSim::run(const CompiledNetwork& compiled,
                              std::span<const float> input,
                              ValidationMode validation) {
  SimResult result;
  std::vector<std::int16_t> input_scratch;
  run_into(compiled, input, validation, input_scratch, result);
  return result;
}

const SimResult& AcceleratorSim::run(const CompiledNetwork& compiled,
                                     std::span<const float> input,
                                     ResultArena& arena,
                                     ValidationMode validation) {
  run_into(compiled, input, validation, arena.input_scratch(),
           arena.result());
  return arena.result();
}

void AcceleratorSim::run_into(const CompiledNetwork& compiled,
                              std::span<const float> input,
                              ValidationMode validation,
                              std::vector<std::int16_t>& input_scratch,
                              SimResult& out) {
  // Chaos hook at the engine boundary (throw/delay only; result
  // corruption is injected by the serving layer, which owns the
  // client-visible result).
  (void)fault::point("engine.run");
  expects(compiled.num_pes() == pes_.size(),
          "CompiledNetwork was built for a different PE count");
  const QuantizedNetwork& network = compiled.network();
  network.quantize_input_into(input, input_scratch);

  // Reserving the compiled image's worst-case broadcast occupancy up
  // front keeps every send() allocation-free regardless of input
  // density — a no-op once the channel has seen this network.
  broadcast_.reserve(compiled.max_broadcast_flits());

  // Scatter the input across the PEs' source register files.
  for (auto& pe : pes_) pe.load_input(input_scratch);

  // Golden reference, computed layer by layer alongside the simulation
  // when validating.
  const bool validate = validation == ValidationMode::kFull;
  std::vector<std::int16_t> golden;
  if (validate) golden.assign(input_scratch.begin(), input_scratch.end());

  if (trace_) trace_->begin_inference();

  out.total_cycles = 0;
  out.layers.resize(compiled.num_layers());
  for (std::size_t l = 0; l < compiled.num_layers(); ++l) {
    LayerSimResult& layer = out.layers[l];
    run_layer_into(compiled, l, layer);

    if (validate) {
      const QuantizedLayerResult golden_layer =
          network.forward_layer(l, golden, compiled.use_predictor());
      ensures(layer.activations == golden_layer.activations,
              "simulator diverged from the functional fixed-point model");
      golden = golden_layer.activations;
    }

    out.total_cycles += layer.total_cycles;
    for (auto& pe : pes_) pe.swap_regfiles();
  }
  // The simulated activations equal the golden ones whenever validation
  // runs, so the output is the last layer's activations either way.
  const std::vector<std::int16_t>& produced =
      validate ? golden : out.layers.back().activations;
  out.output.assign(produced.begin(), produced.end());
}

void AcceleratorSim::run_layer_into(const CompiledNetwork& compiled,
                                    std::size_t l, LayerSimResult& result) {
  const QuantizedLayer& layer = compiled.network().layer(l);
  // The result slot may be reused storage from a previous inference:
  // reset every field but keep the activations' capacity (assign()ed
  // below, allocation-free once warm).
  LayerSimResult fresh;
  fresh.activations.swap(result.activations);
  result = std::move(fresh);

  for (std::size_t i = 0; i < pes_.size(); ++i) {
    pes_[i].load_layer(compiled.slice(l, i));
    pe_nnz_[i] = pes_[i].scan_source_nonzeros().size();
    result.nnz_inputs += pe_nnz_[i];
    result.max_pe_nnz_inputs =
        std::max(result.max_pe_nnz_inputs, pe_nnz_[i]);
  }

  const bool event = stepping_ == SteppingMode::kEvent;
  const bool predict = compiled.use_predictor() && layer.has_predictor() &&
                       !layer.is_output;
  const std::size_t rank = predict ? layer.rank() : 0;
  if (predict) {
    const int from_frac = layer.in_fmt.frac_bits + layer.v->fmt.frac_bits;
    const int mid_frac = layer.mid_fmt.frac_bits;
    result.v_cycles =
        event ? event_core_.run_v_phase(pes_, v_tree_, broadcast_, rank,
                                        from_frac, mid_frac, result)
              : simulate_v_phase(rank, from_frac, mid_frac, result);
    std::uint64_t u_max = 0;
    for (auto& pe : pes_)
      u_max = std::max<std::uint64_t>(u_max, pe.run_u_phase());
    result.u_cycles = u_max + params_.pe_pipeline_stages;
  } else {
    for (auto& pe : pes_) pe.force_all_rows_active();
  }

  result.w_cycles = event
                        ? event_core_.run_w_phase(pes_, w_tree_, broadcast_,
                                                  layer, result)
                        : simulate_w_phase(result);
  result.total_cycles = result.v_cycles + result.u_cycles + result.w_cycles;

  // Gather the produced activations (and count computed rows).
  result.activations.assign(layer.out_dim(), 0);
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    for (const auto& [global, value] : pes_[i].write_back())
      result.activations[global] = value;
    pe_active_[i] = pes_[i].w_active_row_count();
    result.active_rows += pe_active_[i];
    result.max_pe_active_rows =
        std::max(result.max_pe_active_rows, pe_active_[i]);
  }

  result.events = take_census(
      params_, {layer.out_dim(), rank, pe_nnz_, pe_active_},
      result.total_cycles).events;

  if (trace_) record_layer_trace(*trace_, l, result);
}

std::uint64_t AcceleratorSim::simulate_v_phase(std::size_t rank,
                                               int from_frac, int mid_frac,
                                               LayerSimResult& result) {
  UpwardTree& tree = v_tree_;
  BroadcastChannel& broadcast = broadcast_;
  tree.reset();
  broadcast.reset();

  for (auto& pe : pes_) pe.start_v_phase();

  std::uint64_t cycles = 0;
  v_closed_.assign(pes_.size(), false);
  // Every broadcast result reaches every PE in the same cycle, so one
  // maintained counter replaces the per-cycle all-PEs scan: the phase
  // ends when `rank` results have been delivered.
  std::size_t results_delivered = 0;

  while (results_delivered < rank) {
    ensures(++cycles < kCycleLimit, "V-phase deadlock");

    for (std::size_t i = 0; i < pes_.size(); ++i) {
      ProcessingElement& pe = pes_[i];
      if (!pe.v_compute_done()) {
        pe.step_v_compute();
      } else if (pe.has_partial_ready() && tree.can_inject(i)) {
        tree.inject(i, pe.peek_partial());
        pe.pop_partial();
        if (pe.all_partials_sent() && !v_closed_[i]) {
          tree.close_injector(i);
          v_closed_[i] = true;
        }
      } else if (pe.all_partials_sent() && !v_closed_[i]) {
        tree.close_injector(i);
        v_closed_[i] = true;
      }
    }

    // The root rescales the 32-bit sum to the 16-bit mid format and
    // multicasts it; V results always find room (dedicated registers).
    if (const auto out = tree.step(true)) {
      Flit rescaled = *out;
      rescaled.payload = rescale_to_i16(out->payload, from_frac, mid_frac);
      broadcast.send(rescaled);
    }
    if (const auto delivered = broadcast.step()) {
      for (auto& pe : pes_)
        pe.receive_v_result(delivered->index,
                            static_cast<std::int16_t>(delivered->payload));
      ++results_delivered;
    }
  }

  result.v_noc = tree.stats();
  // Downward multicast traverses every router once per result flit.
  result.v_noc.flit_hops +=
      static_cast<std::uint64_t>(rank) * params_.total_routers();
  return cycles + params_.pe_pipeline_stages;
}

std::uint64_t AcceleratorSim::simulate_w_phase(LayerSimResult& result) {
  UpwardTree& tree = w_tree_;
  BroadcastChannel& broadcast = broadcast_;
  tree.reset();
  broadcast.reset();

  for (auto& pe : pes_) pe.start_w_phase();

  std::uint64_t cycles = 0;
  std::uint64_t delivered_count = 0;

  // The phase ends when the PEs have nothing pending and the NoC has
  // drained. The PE predicate is recomputed inside the existing per-PE
  // consume pass (not an extra all-PEs scan), and the tree/broadcast
  // checks read maintained counters, so the loop condition is O(1).
  bool pes_done = true;
  bool all_injected = true;
  std::size_t min_free = SIZE_MAX;
  for (const auto& pe : pes_) {
    pes_done = pes_done && pe.w_done();
    all_injected = all_injected && pe.injections_done();
    min_free = std::min(min_free, pe.queue_free_slots());
  }

  while (!(pes_done && tree.idle() && broadcast.idle())) {
    ensures(++cycles < kCycleLimit, "W-phase deadlock");

    // Injection pass. Queues are untouched by injections, so the
    // begin-of-cycle credit minimum (min_free, carried over from the
    // previous iteration's consume pass) equals the seed engine's
    // separate scan.
    if (!all_injected) {
      all_injected = true;
      for (std::size_t i = 0; i < pes_.size(); ++i) {
        ProcessingElement& pe = pes_[i];
        if (pe.has_injection() && tree.can_inject(i)) {
          tree.inject(i, pe.peek_injection());
          pe.pop_injection();
        }
        all_injected = all_injected && pe.injections_done();
      }
    }

    // Root issues only when every PE can absorb what is in flight plus
    // one more flit (queue-credit backpressure).
    const bool root_ready = min_free > broadcast.in_flight();

    if (const auto out = tree.step(root_ready)) broadcast.send(*out);

    const auto delivered = broadcast.step();
    if (delivered) {
      for (auto& pe : pes_) pe.enqueue_activation(*delivered);
      ++delivered_count;
    }

    // Consume pass, folded with the end-of-cycle queue-credit scan —
    // queue state is final here, so the minimum feeds the next
    // iteration's root_ready exactly like a begin-of-cycle scan would.
    pes_done = true;
    min_free = SIZE_MAX;
    for (auto& pe : pes_) {
      pe.step_w_consume();
      pes_done = pes_done && pe.w_done();
      min_free = std::min(min_free, pe.queue_free_slots());
    }
  }

  ensures(delivered_count == result.nnz_inputs,
          "broadcast delivered a different number of activations than "
          "were injected");

  result.w_noc = tree.stats();
  result.w_noc.flit_hops +=
      delivered_count * params_.total_routers();  // downward multicast
  return cycles + params_.pe_pipeline_stages;
}

}  // namespace sparsenn
