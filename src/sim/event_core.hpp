#pragma once
// The event-driven cycle core (SteppingMode::kEvent) — wake-lists over
// the same NoC the per-cycle loop drives.
//
// The per-cycle reference visits every PE and router every cycle. This
// core keeps the cycle-by-cycle NoC simulation (the trees and the
// broadcast channel are the real objects, stepped for real) but stops
// visiting components that provably have nothing to do:
//
//   V phase — every PE's local column-MAC burst is a deterministic
//     number of cycles known at phase start, so the whole burst runs
//     up front through the vectorised kernel and each PE carries a
//     wake time; the cycle loop only walks the wake-list of PEs whose
//     time has come. When every awake PE is credit-blocked and the
//     tree's last step was provably quiet (no router decision, not
//     even a cancelled one, and no closure propagation — see
//     UpwardTree::last_step_quiet), the loop jumps straight to the
//     next wake time.
//
//   W phase — PE timing is decoupled from PE data. Every delivered
//     activation reaches every PE and int64 accumulation is exact and
//     order-independent, so the datapath work and its event counters
//     are applied in one bulk pass per PE at phase end
//     (ProcessingElement::apply_w_activations), while the cycle loop
//     runs a compact queue-timing model over *cost groups*: every PE
//     sees the same delivery stream and pops at a fixed per-phase
//     cost, so PEs with equal cost have identical pop schedules and
//     collapse into one modelled group. Pop times are monotone in the
//     cost, so the fullest queue (the root's credit view) is always
//     the max-cost group's — an O(1) read, no histogram.
//     The phase tail (all flits injected, NoC drained) collapses into
//     a closed-form jump, and a fully-stalled NoC window advances in
//     one shot — like the V phase's initial burst, these skip windows
//     fall out of "no pending event => no execution" instead of being
//     special cases.
//
// Every observable — cycle counts, event tallies, NoC statistics,
// activations — is bit-identical to the per-cycle reference; the
// equivalence suites in tests/event_core_test.cpp and
// tests/compiled_engine_test.cpp pin it. The core runs on the calling
// thread and allocates nothing in steady state (the arena path's
// zero-allocation contract covers it); parallelism lives across
// inferences, in BatchRunner's per-worker engines.

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "noc/htree.hpp"
#include "pe/pe.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

/// The event-driven V/W phase loops. Owns only scratch (wake-lists and
/// the W timing model); the PEs, trees and broadcast channel belong to
/// the AcceleratorSim that calls in.
class EventCore {
 public:
  /// How much work the event core actually did, cumulative across
  /// phases since the last reset_stats(). The per-cycle reference
  /// executes every simulated cycle, so events_executed ==
  /// cycles_ticked there; the event core's ratio is the fraction of
  /// simulated cycles it could not prove away.
  struct Stats {
    std::uint64_t cycles_ticked = 0;    ///< simulated cycles (total)
    std::uint64_t events_executed = 0;  ///< cycle iterations executed

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  explicit EventCore(const ArchParams& params);

  /// Event-driven V phase: identical contract and observables to
  /// AcceleratorSim::simulate_v_phase. `from_frac`/`mid_frac` are the
  /// root rescale formats. Fills result.v_noc (including the downward
  /// multicast hops) and returns the phase cycles including the PE
  /// pipeline drain.
  std::uint64_t run_v_phase(std::span<ProcessingElement> pes,
                            UpwardTree& tree, BroadcastChannel& broadcast,
                            std::size_t rank, int from_frac, int mid_frac,
                            LayerSimResult& result);

  /// Event-driven W phase: identical contract and observables to
  /// AcceleratorSim::simulate_w_phase (start_w_phase through the last
  /// drained cycle plus the bulk data pass). `input_dim` is the
  /// layer's input dimension — the structural upper bound on injected
  /// flits, used to pre-size scratch so steady-state inferences stay
  /// allocation-free. Fills result.w_noc and returns the phase cycles
  /// including the PE pipeline drain.
  std::uint64_t run_w_phase(std::span<ProcessingElement> pes,
                            UpwardTree& tree, BroadcastChannel& broadcast,
                            std::size_t input_dim, LayerSimResult& result);

  const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

 private:
  /// Records cost group `g` popping its queue at cycle `t` in the W
  /// timing model: pop count, busy horizon and next-free time. Groups
  /// are sorted by descending cost, so group 0 is the laggard and its
  /// pop count is the minimum over all PEs (the root's credit view).
  void do_pop(std::size_t g, std::uint64_t t);

  ArchParams params_;
  Stats stats_;

  // ---- V phase scratch ----
  std::vector<std::uint64_t> wake_;      ///< per-PE local-burst length
  std::vector<std::uint32_t> pending_;   ///< open injectors, ascending

  // ---- W phase scratch (the cost-group queue-timing model) ----
  std::vector<Flit> acts_;               ///< all activations, PE-major
  std::vector<std::uint64_t> pe_cost_;   ///< per-PE cycles per pop
  std::vector<std::uint64_t> cost_;      ///< per-group cycles per pop, desc
  std::vector<std::uint64_t> pops_;      ///< per-group pops so far
  std::vector<std::uint64_t> sched_t_;   ///< per-group next datapath-free cycle
  std::vector<std::uint32_t> scheduled_; ///< groups with a pending sched_t_
  std::vector<std::uint32_t> idle_;      ///< groups waiting for a delivery
  std::vector<std::uint32_t> pending_inj_;  ///< PEs still injecting
  std::uint64_t delivered_ = 0;
  std::uint64_t max_busy_until_ = 0;     ///< last cycle any datapath busy
};

}  // namespace sparsenn
