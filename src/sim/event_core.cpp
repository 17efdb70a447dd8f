#include "sim/event_core.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "nn/quantized.hpp"

namespace sparsenn {

// ---------------------------------------------------------------- EventCore

EventCore::EventCore(const ArchParams& params) : params_(params) {}

// ------------------------------------------------------------------ V phase

std::uint64_t EventCore::run_v_phase(std::span<ProcessingElement> pes,
                                     UpwardTree& tree,
                                     BroadcastChannel& broadcast,
                                     std::size_t rank, int from_frac,
                                     int mid_frac, LayerSimResult& result) {
  tree.reset();
  broadcast.reset();

  // Phase start plus each PE's entire deterministic local-MAC burst,
  // through the vectorised column kernel. In the reference a PE
  // computes (and does nothing else) for exactly its burst's cycles,
  // and offers its first partial sum the cycle after.
  for (std::size_t i = 0; i < pes.size(); ++i) {
    pes[i].start_v_phase();
    const std::size_t burst = pes[i].v_burst_cycles();
    pes[i].burst_v_compute(burst);
    if (pes[i].has_partial_ready()) tree.add_injector(i, burst + 1);
  }

  std::size_t results_delivered = 0;
  std::uint64_t now = 0;  // last cycle run; the broadcast's clock
  std::uint64_t executed = 0;
  // Run only cycles in which something can happen — an injection, a
  // reduction or a delivery — and jump straight to the next, until
  // every PE holds all `rank` results.
  for (std::uint64_t t = tree.next_cycle(true); results_delivered < rank;) {
    ensures(t < kCycleLimit, "V-phase deadlock");
    ++executed;
    broadcast.skip(t - 1 - now);
    now = t;

    for (const std::uint32_t i : tree.begin_cycle(t)) {
      const Flit partial = pes[i].peek_partial();
      pes[i].pop_partial();
      tree.inject_lazy(i, partial, pes[i].has_partial_ready());
    }
    // The root rescales the accumulated sum to the mid format and
    // multicasts it; V results always find room (dedicated registers).
    if (const auto out = tree.step_lazy(true)) {
      Flit rescaled = *out;
      rescaled.payload =
          rescale_to_i16(out->payload, from_frac, mid_frac);
      broadcast.send(rescaled);
    }
    if (const auto delivered = broadcast.step()) {
      for (auto& pe : pes)
        pe.receive_v_result(delivered->index,
                            static_cast<std::int16_t>(delivered->payload));
      ++results_delivered;
    }
    t = std::min(tree.next_cycle(true), broadcast.next_delivery());
  }
  tree.settle(now);

  stats_.cycles_ticked += now;
  stats_.events_executed += executed;

  result.v_noc = tree.stats();
  return now + params_.pe_pipeline_stages;
}

// ------------------------------------------------------------------ W phase

std::uint64_t EventCore::run_w_phase(std::span<ProcessingElement> pes,
                                     UpwardTree& tree,
                                     BroadcastChannel& broadcast,
                                     const QuantizedLayer& layer,
                                     LayerSimResult& result) {
  tree.reset();
  broadcast.reset();
  const std::uint64_t queue_depth = params_.act_queue_depth;

  // Every PE receives the same delivery stream and pops it at its own
  // fixed cost per activation, max(1, active rows). Pop times are
  // monotone in that cost, so the PE with the most active rows (the
  // laggard) always holds the fullest queue — the root's credit view
  // — and finishes last: its queue is the only PE timing the phase
  // observes.
  std::uint64_t cost = 1;
  std::uint64_t total = 0;  // flits the phase injects
  for (std::size_t i = 0; i < pes.size(); ++i) {
    pes[i].start_w_phase();
    cost = std::max<std::uint64_t>(cost, pes[i].w_active_row_count());
    total += pes[i].w_injection_flits().size();
    if (pes[i].has_injection()) tree.add_injector(i, 1);
  }

  // The data pass's input: every delivery lands in one dense vector.
  const std::size_t n = layer.in_dim();
  dense_.assign(n, 0);

  std::uint64_t delivered = 0;
  std::uint64_t popped = 0;    // the laggard's pops
  std::uint64_t free_at = 0;   // first cycle its datapath is free
  std::uint64_t now = 0;       // last cycle run; the broadcast's clock
  std::uint64_t executed = 0;
  // The root issues only when every queue can absorb what is in flight
  // plus one more flit, read from the previous cycle's end state.
  const auto root_ready = [&] {
    return queue_depth - (delivered - popped) > broadcast.in_flight();
  };

  // Run only cycles in which something happens — a router grant, an
  // injection, a delivery or a pop — and jump straight to the next,
  // until the laggard has popped every flit.
  for (std::uint64_t t = tree.next_cycle(false); popped < total;) {
    ensures(t < kCycleLimit, "W-phase deadlock");
    ++executed;
    broadcast.skip(t - 1 - now);
    now = t;

    for (const std::uint32_t i : tree.begin_cycle(t)) {
      const Flit& flit = pes[i].peek_injection();  // pop keeps the list
      pes[i].pop_injection();
      tree.inject_lazy(i, flit, pes[i].has_injection());
    }
    if (const auto out = tree.step_lazy(root_ready())) broadcast.send(*out);
    if (const auto d = broadcast.step()) {
      expects(d->index < n, "activation index out of layer range");
      dense_[d->index] = static_cast<std::int16_t>(d->payload);
      ++delivered;
    }
    if (delivered > popped && free_at <= t) {
      ++popped;
      free_at = t + cost;
    }

    t = std::min(tree.next_cycle(root_ready()), broadcast.next_delivery());
    if (delivered > popped) t = std::min(t, free_at);
  }
  // The phase ends when the laggard's datapath finishes its last pop.
  const std::uint64_t cycles = total == 0 ? 0 : free_at - 1;
  tree.settle(cycles);

  ensures(tree.idle() && delivered == result.nnz_inputs,
          "broadcast delivered a different number of activations than "
          "were injected");

  // The data pass: one whole-layer input-sparse matvec over the
  // network's column-major W gives every global row's sum over the
  // delivered activations (int64 accumulation is exact, so delivery
  // order cannot matter), and each PE takes its active rows' sums.
  // A flit delivered twice would leave fewer nonzero inputs than
  // deliveries.
  const KernelTable& kern = kernels();
  idx_.resize(n);
  idx_.resize(kern.nonzero_scan_i16(dense_.data(), n, idx_.data()));
  ensures(idx_.size() == delivered,
          "broadcast delivered an activation more than once");
  const std::size_t m = layer.out_dim();
  sums_.assign(m, 0);
  kern.sparse_matvec_i16_i64(sums_.data(), layer.w_t.data.data(), m,
                             idx_.data(), idx_.size(), dense_.data());
  for (ProcessingElement& pe : pes) pe.apply_w_sums(sums_);

  stats_.cycles_ticked += cycles;
  stats_.events_executed += executed;

  result.w_noc = tree.stats();
  return cycles + params_.pe_pipeline_stages;
}

}  // namespace sparsenn
