#pragma once
// The top-level cycle-accurate SparseNN simulator — the
// EngineKind::kCycle backend of the ExecutionEngine layer
// (sim/engine.hpp). Its results are the ground truth the analytic
// backend's predictions are verified against.
//
// AcceleratorSim owns the 64 PEs and drives the per-layer phase
// sequence of Section V.D:
//
//   V phase  — local column MACs, partial-sum reduction through the
//              accumulate-mode H-tree, result broadcast;
//   U phase  — row-based predictor evaluation filling the bit banks;
//   W phase  — nonzero activations race through the arbitrate-mode
//              H-tree to the root and broadcast to every PE, which
//              multiplies them with its predicted-active rows only.
//
// With `use_predictor = false` the V/U phases are skipped and every
// row computes — this is exactly the EIE-style input-sparsity-only
// baseline the paper calls uv_off.
//
// Two entry points share the engine:
//
//   run(network, input, use_predictor) — compiles the network's per-PE
//     slices for this one inference and cross-checks every layer
//     against nn::QuantizedNetwork (the seed engine's behaviour);
//
//   run(compiled, input, mode) — the batch hot path: slices come from a
//     shared read-only CompiledNetwork, the NoC and all PE scratch are
//     reused in place, and the golden-model cross-check is a
//     ValidationMode knob;
//
//   run(compiled, input, arena, mode) — the same engine writing its
//     SimResult into caller-owned storage (sim/result_arena.hpp): with
//     validation off the whole inference performs zero heap
//     allocations in steady state.
//
// Results are bit-identical across all entry points and modes; only
// the wall-clock and allocation profile differ.
//
// The steady-state cycle loop performs no heap allocation: the trees,
// broadcast channel, queues and scan buffers are preallocated members
// reused across phases, layers and inferences.

#include <cstdint>
#include <vector>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "noc/htree.hpp"
#include "pe/pe.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/event_core.hpp"
#include "sim/trace.hpp"

namespace sparsenn {

/// How the cycle engine advances simulated time. Both modes are
/// bit-identical in every observable (cycles, event counts, NoC stats,
/// activations) — they differ only in wall-clock speed.
enum class SteppingMode {
  kPerCycle,  ///< every component visited every cycle (the oracle)
  kEvent,     ///< event-driven wake-list core (sim/event_core.hpp)
};

const char* to_string(SteppingMode mode) noexcept;

class AcceleratorSim final : public ExecutionEngine {
 public:
  explicit AcceleratorSim(const ArchParams& params);

  EngineKind kind() const noexcept override { return EngineKind::kCycle; }
  const ArchParams& params() const noexcept override { return params_; }

  /// Runs one inference against a one-shot compiled image with full
  /// validation — identical results to the compiled overload. The
  /// input is quantised with the network's input format, scattered
  /// across the PEs, and the layers execute in sequence. Throws
  /// InvariantError if the simulated activations ever diverge from
  /// the functional model or the NoC deadlocks.
  SimResult run(const QuantizedNetwork& network,
                std::span<const float> input, bool use_predictor);

  /// Runs one inference from a pre-compiled network (see
  /// sim/compiled_network.hpp). `compiled` must have been built with
  /// this simulator's ArchParams.
  SimResult run(const CompiledNetwork& compiled,
                std::span<const float> input,
                ValidationMode validation = ValidationMode::kFull) override;

  /// Same engine, but the SimResult and all its vectors live in
  /// `arena` (see sim/result_arena.hpp): with ValidationMode::kOff the
  /// inference is allocation-free in steady state. The returned
  /// reference is into the arena and is overwritten by the next run
  /// using it.
  const SimResult& run(
      const CompiledNetwork& compiled, std::span<const float> input,
      ResultArena& arena,
      ValidationMode validation = ValidationMode::kFull) override;

  /// Attaches a trace log; every subsequent run() appends per-phase
  /// records. Pass nullptr to detach. The log must outlive the sim.
  void set_trace(TraceLog* trace) noexcept override { trace_ = trace; }

  /// How simulated time advances. Results, cycle counts, event
  /// counters and NoC statistics are bit-identical across both modes
  /// (tests/compiled_engine_test and tests/event_core_test pin this);
  /// the switch exists so tests and benches can cross-check the event
  /// core against the per-cycle reference. Default: kEvent.
  void set_stepping_mode(SteppingMode mode) noexcept { stepping_ = mode; }
  SteppingMode stepping_mode() const noexcept { return stepping_; }

  /// How much work the event core did since the last reset (empty
  /// unless runs used SteppingMode::kEvent).
  const EventCore::Stats& event_core_stats() const noexcept {
    return event_core_.stats();
  }
  void reset_event_core_stats() noexcept { event_core_.reset_stats(); }

 private:
  /// Shared implementation of every entry point: quantises the input
  /// into `input_scratch`, simulates every layer into `out` (reusing
  /// whatever capacity `out` already carries — the arena path's
  /// zero-allocation property).
  void run_into(const CompiledNetwork& compiled,
                std::span<const float> input, ValidationMode validation,
                std::vector<std::int16_t>& input_scratch, SimResult& out);

  void run_layer_into(const CompiledNetwork& compiled, std::size_t l,
                      LayerSimResult& result);

  /// Per-cycle reference phases (SteppingMode::kPerCycle); same
  /// contracts as EventCore::run_v_phase / run_w_phase.
  std::uint64_t simulate_v_phase(std::size_t rank, int from_frac,
                                 int mid_frac, LayerSimResult& result);
  std::uint64_t simulate_w_phase(LayerSimResult& result);

  ArchParams params_;
  std::vector<ProcessingElement> pes_;
  // Per-PE work of the current layer, the census's input (sized once).
  std::vector<std::size_t> pe_nnz_;
  std::vector<std::size_t> pe_active_;

  // Persistent NoC instances, reset at each phase start instead of
  // rebuilt — reset is bit-identical to fresh construction.
  UpwardTree v_tree_;
  UpwardTree w_tree_;
  BroadcastChannel broadcast_;
  std::vector<bool> v_closed_;  ///< per-PE injector-closed scratch

  SteppingMode stepping_ = SteppingMode::kEvent;
  EventCore event_core_;
  TraceLog* trace_ = nullptr;
};

}  // namespace sparsenn
