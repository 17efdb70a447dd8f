#pragma once
// The pluggable execution-engine layer.
//
// One compiled network image (sim/compiled_network.hpp) can be
// executed by more than one cost backend:
//
//   EngineKind::kCycle    — AcceleratorSim (sim/accelerator.hpp), the
//     cycle-accurate 64-PE model: per-cycle NoC stepping, exact event
//     counts, the paper's verification path;
//
//   EngineKind::kAnalytic — AnalyticEngine (sim/analytic_engine.hpp):
//     the functional fixed-point forward pass (bit-exact activations,
//     predictor masks and labels) with closed-form per-layer schedule
//     math for cycles — no per-cycle stepping, so single-inference
//     latency drops by an order of magnitude.
//
// Both backends implement ExecutionEngine below and fill the same
// SimResult shape, so System, BatchRunner, the CLI and the benches
// select a backend with one knob. Predictions (activations/output) are
// bit-identical across backends. Both fill LayerSimResult::events from
// one census of the layer's per-PE work (sim/census.hpp). The analytic
// engine's per-layer V/U/W cycle counts equal the cycle engine's on
// the default buffered fabric and run low where the fabric contends
// (unbuffered flow control, shallow router or activation queues).
// tests/engine_equivalence_test pins the predictions and the per-layer
// cycle and event equality, tests/perf_floor_test the speedup.
//
// Engines are stateful scratch owners, exactly like AcceleratorSim
// always was: one engine per thread, never shared concurrently. The
// compiled image, in contrast, is immutable and shared read-only.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "noc/htree.hpp"

namespace sparsenn {

class CompiledNetwork;  // sim/compiled_network.hpp
class ResultArena;      // sim/result_arena.hpp
class TraceLog;         // sim/trace.hpp

/// Whether run() cross-checks every layer's simulated activations
/// against the functional fixed-point model. (The analytic backend
/// *is* the functional model, so it treats both modes identically.)
enum class ValidationMode {
  kFull,  ///< golden forward pass + ensures() per layer (tests, CLI)
  kOff,   ///< trust the engine (batch/bench hot paths after an
          ///< initial validated inference) — results are identical,
          ///< only the redundant golden recomputation is skipped
};

/// Cycle/energy results for one layer of one inference.
struct LayerSimResult {
  std::uint64_t v_cycles = 0;
  std::uint64_t u_cycles = 0;
  std::uint64_t w_cycles = 0;
  std::uint64_t total_cycles = 0;
  EventCounts events;           ///< all PEs + routers (the census)
  NocStats w_noc;               ///< W-phase network statistics
  NocStats v_noc;               ///< V-phase reduction statistics
  std::vector<std::int16_t> activations;  ///< produced layer output
  std::size_t nnz_inputs = 0;   ///< nonzero input activations
  std::size_t active_rows = 0;  ///< rows actually computed
  /// The slowest PE of each phase: the most nonzero inputs any one PE
  /// holds (V costs it this × rank MACs) and the most predicted-active
  /// rows any one PE maps (each W delivery busies it this many cycles).
  std::size_t max_pe_nnz_inputs = 0;
  std::size_t max_pe_active_rows = 0;

  friend bool operator==(const LayerSimResult&,
                         const LayerSimResult&) = default;
};

/// Whole-inference results.
struct SimResult {
  std::vector<LayerSimResult> layers;
  std::vector<std::int16_t> output;
  std::uint64_t total_cycles = 0;

  EventCounts total_events() const;

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// The available cost backends.
enum class EngineKind {
  kCycle,     ///< cycle-accurate AcceleratorSim
  kAnalytic,  ///< functional model + closed-form schedule math
};

const char* to_string(EngineKind kind) noexcept;

/// Parses "cycle"/"analytic" (the CLI's --engine values); nullopt on
/// anything else.
std::optional<EngineKind> parse_engine_kind(std::string_view name);

/// Interface every backend implements. Entry points mirror the
/// original AcceleratorSim surface so existing call sites keep
/// compiling against either the concrete type or the interface.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  virtual EngineKind kind() const noexcept = 0;
  virtual const ArchParams& params() const noexcept = 0;

  /// Runs one inference from a pre-compiled network (see
  /// sim/compiled_network.hpp). `compiled` must have been built with
  /// this engine's ArchParams.
  virtual SimResult run(const CompiledNetwork& compiled,
                        std::span<const float> input,
                        ValidationMode validation = ValidationMode::kFull) = 0;

  /// Same engine, but the SimResult and all its vectors live in
  /// `arena` (see sim/result_arena.hpp); the returned reference is
  /// into the arena and is overwritten by the next run using it.
  virtual const SimResult& run(
      const CompiledNetwork& compiled, std::span<const float> input,
      ResultArena& arena,
      ValidationMode validation = ValidationMode::kFull) = 0;

  /// Attaches a trace log; every subsequent run() appends per-phase
  /// records. Pass nullptr to detach. The log must outlive the engine.
  virtual void set_trace(TraceLog* trace) noexcept = 0;
};

/// Backend factory: the one place the concrete engine types are named.
std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind,
                                             const ArchParams& params);

/// Appends one layer's V/U/W phase records to `trace` from a filled
/// LayerSimResult — the shared trace shape of every backend
/// (TraceLog::record stamps the inference number). Phases with zero
/// cycles are skipped.
void record_layer_trace(TraceLog& trace, std::size_t layer,
                        const LayerSimResult& result);

}  // namespace sparsenn
