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
//   W phase — PE timing is decoupled from PE data, and the loop runs
//     only the cycles in which a flit moves. The arbitrate tree steps
//     only the routers that may grant (UpwardTree's event-driven
//     arbitration): an empty or credit-blocked router repeats the same
//     decision every cycle, so its counters are settled in one go when
//     a push, a grant or a returning credit next changes it, and at
//     phase end. A PE is offered injection only while its leaf port has
//     room, and again when that port's next credit returns. The PE
//     side is one queue: every PE sees the same delivery stream and
//     pops it at a fixed per-activation cost, max(1, active rows), and
//     pop times are monotone in that cost, so the PE with the most
//     active rows always holds the fullest queue (the root's credit
//     view) and finishes last. Between cycles that grant, inject,
//     deliver or pop, the loop jumps straight to the next one. After
//     the loop, the delivered activations are scattered into one dense
//     input and a single input-sparse matvec over the layer's
//     column-major W (QuantizedLayer::w_t, the functional model's own
//     kernel) gives every row's sum, and each PE takes its active rows'
//     sums (ProcessingElement::apply_w_sums).
//
// Every observable — cycle counts, NoC statistics, activations, and so
// the event counts the census (sim/census.hpp) derives from the PEs'
// work — is bit-identical to the per-cycle reference; the equivalence
// suites in tests/event_core_test.cpp and
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

struct QuantizedLayer;  // nn/quantized.hpp

/// Hard ceiling on any phase in either stepping mode; hitting it means
/// a flow-control deadlock, which both modes report with the same
/// messages.
inline constexpr std::uint64_t kCycleLimit = 50'000'000;

/// The event-driven V/W phase loops. Owns only scratch (wake-lists and
/// the W timing model); the PEs, trees and broadcast channel belong to
/// the AcceleratorSim that calls in.
class EventCore {
 public:
  /// How much work the event core actually did, cumulative across
  /// phases since the last reset_stats(). The per-cycle reference
  /// executes every simulated cycle, so events_executed ==
  /// cycles_ticked there; the event core's ratio is the fraction of
  /// simulated cycles it could not prove away. It does not track host
  /// cost: an executed W cycle steps only the routers that can move.
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
  /// drained cycle, then the whole-layer data pass over `layer`'s W).
  /// Fills result.w_noc and returns the phase cycles including the PE
  /// pipeline drain.
  std::uint64_t run_w_phase(std::span<ProcessingElement> pes,
                            UpwardTree& tree, BroadcastChannel& broadcast,
                            const QuantizedLayer& layer,
                            LayerSimResult& result);

  const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

 private:
  ArchParams params_;
  Stats stats_;

  // ---- V phase scratch ----
  std::vector<std::uint64_t> wake_;      ///< per-PE local-burst length
  std::vector<std::uint32_t> pending_;   ///< open injectors, ascending

  // ---- W phase data-pass scratch (capacity kept across layers) ----
  std::vector<std::int16_t> dense_;   ///< delivered activations, by index
  std::vector<std::uint32_t> idx_;    ///< their ascending indices
  std::vector<std::int64_t> sums_;    ///< per global row: Σ W[row][c]·a_c
};

}  // namespace sparsenn
