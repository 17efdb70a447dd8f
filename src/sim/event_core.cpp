#include "sim/event_core.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"
#include "nn/quantized.hpp"

namespace sparsenn {
namespace {

/// Activations the W data pass applies across all PEs at a time: 16
/// columns of a 1000-row layer are 32 KB of W, which stays in L1.
constexpr std::size_t kApplyBlock = 16;

}  // namespace

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

void EventCore::do_pop(std::size_t g, std::uint64_t t) {
  ++pops_[g];
  sched_t_[g] = t + cost_[g];
  max_busy_until_ = std::max(max_busy_until_, t + cost_[g] - 1);
}

std::uint64_t EventCore::run_w_phase(std::span<ProcessingElement> pes,
                                     UpwardTree& tree,
                                     BroadcastChannel& broadcast,
                                     std::size_t input_dim,
                                     LayerSimResult& result) {
  tree.reset();
  broadcast.reset();
  const std::size_t num_pes = pes.size();
  const std::uint64_t queue_depth = params_.act_queue_depth;

  // The flit list scales with this input's nnz; size its capacity by
  // the structural bound (one flit per input element) so steady-state
  // inferences never regrow it — the arena path's zero-allocation
  // contract.
  acts_.reserve(input_dim);

  // Phase start; record each PE's fixed per-pop datapath cost.
  pe_cost_.resize(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) {
    pes[i].start_w_phase();
    pe_cost_[i] = std::max<std::uint64_t>(std::uint64_t{1},
                                          pes[i].w_active_row_count());
  }

  // Collapse PEs into cost groups. Every PE sees the same delivery
  // stream and pops at its fixed cost, so the pop schedule is a pure
  // function of the cost — equal-cost PEs are indistinguishable to the
  // timing model and one group stands in for all of them. Sorted by
  // descending cost: pop times are monotone in the cost, so group 0
  // (the laggard) always holds the minimum pop count over all PEs —
  // the fullest queue, i.e. the root's credit view, read in O(1).
  cost_.clear();
  for (const std::uint64_t c : pe_cost_) {
    if (std::find(cost_.begin(), cost_.end(), c) == cost_.end())
      cost_.push_back(c);
  }
  std::sort(cost_.begin(), cost_.end(), std::greater<>{});
  const std::size_t num_groups = cost_.size();

  // Everything the phase will deliver is known up front: the broadcast
  // multicasts every injected flit to every PE, so the data pass at
  // the end applies this one PE-major list everywhere (int64
  // accumulation is exact and order-independent).
  acts_.clear();
  pending_inj_.clear();
  for (std::size_t i = 0; i < num_pes; ++i) {
    const auto flits = pes[i].w_injection_flits();
    acts_.insert(acts_.end(), flits.begin(), flits.end());
    if (!flits.empty()) pending_inj_.push_back(static_cast<std::uint32_t>(i));
  }
  const std::uint64_t total = acts_.size();
  bool all_injected = pending_inj_.empty();

  // Timing-model state: every group starts idle (empty queue, free
  // datapath) with zero pops.
  pops_.assign(num_groups, 0);
  sched_t_.assign(num_groups, 0);
  scheduled_.clear();
  idle_.clear();
  for (std::size_t g = 0; g < num_groups; ++g)
    idle_.push_back(static_cast<std::uint32_t>(g));
  max_busy_until_ = 0;
  delivered_ = 0;
  std::uint64_t cycles = 0;
  std::uint64_t executed = 0;

  // Same termination predicate as the reference, read off the model:
  // queues empty everywhere <=> the laggard group has popped
  // everything; datapaths free <=> past the busy horizon.
  while (!(all_injected && pops_[0] == delivered_ &&
           cycles >= max_busy_until_ && tree.idle() && broadcast.idle())) {
    // Drain jump: every flit is injected and the NoC is empty, so the
    // rest of the phase is each PE independently grinding down its
    // queue at its fixed per-pop cost — closed form.
    if (all_injected && tree.idle() && broadcast.idle()) {
      std::uint64_t fin = std::max(cycles, max_busy_until_);
      for (const std::uint32_t g : scheduled_) {
        const std::uint64_t queued = delivered_ - pops_[g];
        if (queued > 0)
          fin = std::max(fin, sched_t_[g] + queued * cost_[g] - 1);
      }
      tree.skip_idle(fin - cycles);
      broadcast.skip(fin - cycles);
      cycles = fin;
      ensures(cycles < kCycleLimit, "W-phase deadlock");
      break;
    }

    // Stall window: nothing in the broadcast pipe, the tree holds
    // flits but provably cannot move one, every pending injection is
    // credit-blocked, and some queue is full (so the root stays
    // back-pressured until its first pop). Until then each cycle only
    // repeats the same stalled decisions while datapaths count down.
    if (broadcast.idle() && !tree.idle() && !tree.last_step_transferred()) {
      bool blocked = true;
      for (const std::uint32_t i : pending_inj_) {
        if (tree.can_inject(i)) {
          blocked = false;
          break;
        }
      }
      if (blocked && delivered_ - pops_[0] == queue_depth) {
        std::uint64_t burst = UINT64_MAX;
        for (const std::uint32_t g : scheduled_) {
          if (delivered_ - pops_[g] == queue_depth)
            burst = std::min(burst, sched_t_[g] - cycles);
        }
        if (burst > 1 && tree.stalled_static()) {
          // Advance the model through the window: pops fire at their
          // scheduled times (no deliveries arrive — the pipe is empty
          // and the root is stalled).
          const std::uint64_t end = cycles + burst;
          std::size_t kept = 0;
          for (std::size_t s = 0; s < scheduled_.size(); ++s) {
            const std::uint32_t g = scheduled_[s];
            while (sched_t_[g] <= end && pops_[g] < delivered_)
              do_pop(g, sched_t_[g]);
            if (sched_t_[g] <= end) {
              idle_.push_back(g);  // found its queue empty
            } else {
              scheduled_[kept++] = g;
            }
          }
          scheduled_.resize(kept);
          tree.skip_stalled(burst);
          broadcast.skip(burst);
          cycles += burst;
          ensures(cycles < kCycleLimit, "W-phase deadlock");
          continue;
        }
      }
    }

    ensures(++cycles < kCycleLimit, "W-phase deadlock");
    ++executed;

    // Injection pass, ascending PE order (cursor and counters are the
    // PE's own — peek/pop are the real calls).
    if (!all_injected) {
      std::size_t kept = 0;
      for (std::size_t p = 0; p < pending_inj_.size(); ++p) {
        const std::uint32_t i = pending_inj_[p];
        if (tree.can_inject(i)) {
          tree.inject(i, pes[i].peek_injection());
          pes[i].pop_injection();
          if (!pes[i].has_injection()) continue;  // drained: drop
        }
        pending_inj_[kept++] = i;
      }
      pending_inj_.resize(kept);
      all_injected = pending_inj_.empty();
    }

    // Root credit view from end-of-previous-cycle queue state, exactly
    // like the reference's carried-over min_free scan (the laggard
    // group's queue is always the fullest).
    const std::uint64_t min_free =
        queue_depth - (delivered_ - pops_[0]);
    const bool root_ready = min_free > broadcast.in_flight();

    if (const auto out = tree.step(root_ready)) broadcast.send(*out);

    if (broadcast.step()) {
      ++delivered_;
      // Every idle group pops the fresh delivery this very cycle (its
      // datapath was free and its queue was empty until now).
      for (const std::uint32_t g : idle_) {
        do_pop(g, cycles);
        scheduled_.push_back(g);
      }
      idle_.clear();
    }

    // Scheduled pass: datapaths that free up this cycle either pop the
    // next queued activation or go idle.
    std::size_t kept = 0;
    for (std::size_t s = 0; s < scheduled_.size(); ++s) {
      const std::uint32_t g = scheduled_[s];
      if (sched_t_[g] == cycles) {
        if (pops_[g] < delivered_) {
          do_pop(g, cycles);
        } else {
          idle_.push_back(g);
          continue;
        }
      }
      scheduled_[kept++] = g;
    }
    scheduled_.resize(kept);
  }

  ensures(delivered_ == total && total == result.nnz_inputs,
          "broadcast delivered a different number of activations than "
          "were injected");

  // The bulk data pass — every PE accumulates every delivered
  // activation and charges the per-activation event totals. The PEs'
  // W views interleave into one column-major W, so neighbouring PEs'
  // rows of a column share cache lines: a block of activations goes
  // across all PEs before the next block, loading each column's lines
  // once per block rather than once per PE. Accumulation and event
  // totals are exact and linear in the activations, so the split is
  // bit-identical to one call per PE.
  const std::span<const Flit> acts = acts_;
  for (std::size_t b = 0; b < acts.size(); b += kApplyBlock) {
    const auto block =
        acts.subspan(b, std::min(kApplyBlock, acts.size() - b));
    for (ProcessingElement& pe : pes) pe.apply_w_activations(block);
  }

  stats_.cycles_ticked += cycles;
  stats_.events_executed += executed;

  result.w_noc = tree.stats();
  result.w_noc.flit_hops +=
      delivered_ * params_.total_routers();  // downward multicast
  return cycles + params_.pe_pipeline_stages;
}

}  // namespace sparsenn
