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
//     math for cycles, events and NoC statistics — no per-cycle
//     stepping, so single-inference latency drops by an order of
//     magnitude.
//
// Both backends implement ExecutionEngine below and fill the same
// SimResult shape, so System, BatchRunner, the CLI and the benches
// select a backend with one knob. Predictions (activations/output) are
// bit-identical across backends. The analytic engine's per-layer V/U/W
// cycle counts equal the cycle engine's on the default buffered fabric
// and run low where the fabric contends (unbuffered flow control,
// shallow router or activation queues); its event counts remain
// estimates. tests/engine_equivalence_test pins the predictions and the
// per-layer cycle equality, bench/sim_throughput the speedup.
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
  EventCounts events;           ///< all PEs + routers, this layer
  NocStats w_noc;               ///< W-phase network statistics
  NocStats v_noc;               ///< V-phase reduction statistics
  std::vector<std::int16_t> activations;  ///< produced layer output
  std::size_t nnz_inputs = 0;   ///< nonzero input activations
  std::size_t active_rows = 0;  ///< rows actually computed

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

/// How the cycle engine advances simulated time. Both modes are
/// bit-identical in every observable (cycles, event counts, NoC stats,
/// activations) — they differ only in wall-clock speed. The analytic
/// engine ignores the knob (it never ticks).
enum class SteppingMode {
  kPerCycle,  ///< every component visited every cycle (the reference)
  kEvent,     ///< event-driven wake-list core (sim/event_core.hpp)
};

const char* to_string(SteppingMode mode) noexcept;

/// Parses "per_cycle"/"event" (the CLI's --stepping values); nullopt
/// on anything else.
std::optional<SteppingMode> parse_stepping_mode(std::string_view name);

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
  /// this engine's ArchParams, must not be stale(), and must outlive
  /// the call.
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
/// `stepping` configures the cycle backend; the analytic backend
/// ignores it.
std::unique_ptr<ExecutionEngine> make_engine(
    EngineKind kind, const ArchParams& params,
    SteppingMode stepping = SteppingMode::kEvent);

/// Appends one layer's V/U/W phase records to `trace` from a filled
/// LayerSimResult — the shared trace shape of every backend
/// (TraceLog::record stamps the inference number). Phases with zero
/// cycles are skipped.
void record_layer_trace(TraceLog& trace, std::size_t layer,
                        const LayerSimResult& result);

}  // namespace sparsenn
