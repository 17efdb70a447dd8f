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
  const std::size_t num_pes = pes.size();

  // Phase start plus each PE's entire deterministic local-MAC burst,
  // through the vectorised column kernel. The burst length is this
  // PE's wake time — in the reference it computes (and does nothing
  // else) for exactly that many cycles.
  wake_.resize(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) {
    pes[i].start_v_phase();
    wake_[i] = pes[i].v_burst_cycles();
    pes[i].burst_v_compute(wake_[i]);
  }

  std::uint64_t cycles = 0;
  std::uint64_t executed = 0;
  std::size_t results_delivered = 0;
  pending_.clear();
  for (std::size_t i = 0; i < num_pes; ++i)
    pending_.push_back(static_cast<std::uint32_t>(i));

  // Until the earliest wake time nothing injects and the NoC is empty:
  // jump there. (The reference's cycles 1..min_wake only run compute,
  // already applied above.)
  if (rank > 0) {
    std::uint64_t min_wake = UINT64_MAX;
    for (const std::uint64_t w : wake_) min_wake = std::min(min_wake, w);
    if (min_wake > 0) {
      tree.skip_idle(min_wake);
      broadcast.skip(min_wake);
      cycles = min_wake;
      ensures(cycles < kCycleLimit, "V-phase deadlock");
    }
  }

  while (results_delivered < rank) {
    // Wait-skip: nothing in the broadcast pipe, the tree's last step
    // was provably quiet, every awake injector is credit-blocked and
    // at least one PE has not woken yet — every cycle until the next
    // wake only ticks clocks and occupancy. The quiet proof needs the
    // credit view frozen too (trivially true for latency-1 credits).
    if (!pending_.empty() && broadcast.idle() && tree.last_step_quiet() &&
        tree.credits_quiet()) {
      std::uint64_t next_wake = UINT64_MAX;
      bool awake_blocked = true;
      for (const std::uint32_t i : pending_) {
        if (wake_[i] > cycles) {
          next_wake = std::min<std::uint64_t>(next_wake, wake_[i]);
        } else if (tree.can_inject(i)) {
          awake_blocked = false;
          break;
        }
      }
      if (awake_blocked && next_wake != UINT64_MAX) {
        const std::uint64_t k = next_wake - cycles;
        tree.skip_waiting(k);
        broadcast.skip(k);
        cycles += k;
      }
    }

    ensures(++cycles < kCycleLimit, "V-phase deadlock");
    ++executed;

    // Injection pass over the wake-list, ascending PE order (arbitrary
    // but shared with the reference: injections consume leaf credits
    // that later PEs observe the same cycle). Closed injectors leave
    // the list.
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      const std::uint32_t i = pending_[p];
      bool closed = false;
      if (wake_[i] < cycles && tree.can_inject(i)) {
        tree.inject(i, pes[i].peek_partial());
        pes[i].pop_partial();
        if (pes[i].all_partials_sent()) {
          tree.close_injector(i);
          closed = true;
        }
      }
      if (!closed) pending_[kept++] = i;
    }
    pending_.resize(kept);

    // The root rescales the accumulated sum to the mid format and
    // multicasts it; V results always find room (dedicated registers).
    if (const auto out = tree.step(true)) {
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
  }

  stats_.cycles_ticked += cycles;
  stats_.events_executed += executed;

  result.v_noc = tree.stats();
  // Downward multicast traverses every router once per result flit.
  result.v_noc.flit_hops +=
      static_cast<std::uint64_t>(rank) * params_.total_routers();
  return cycles + params_.pe_pipeline_stages;
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
    if (pes[i].has_injection()) tree.add_injector(i);
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
  result.w_noc.flit_hops +=
      delivered * params_.total_routers();  // downward multicast
  return cycles + params_.pe_pipeline_stages;
}

}  // namespace sparsenn
