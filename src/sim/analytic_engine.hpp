#pragma once
// The EngineKind::kAnalytic backend: functional execution with
// closed-form hardware cost models (sim/engine.hpp).
//
// Where AcceleratorSim steps the NoC and every PE cycle by cycle, this
// engine runs each layer as the fixed-point functional model the
// hardware is verified against — the same integer MAC/rescale/mask
// arithmetic, so activations, predictor masks, nnz/active-row counts
// and therefore predicted labels are bit-identical to the cycle
// backend (tests/engine_equivalence_test pins this), and so is the
// per-PE work the census (sim/census.hpp) turns into event and flit
// counts. Cycles are *derived* from the per-layer schedule math of
// Section V (the same reasoning as bench/ablation_schedule's
// estimators, but fed with the exact per-PE work distribution of this
// input instead of balanced averages):
//
//   V phase — the slowest PE's local column MACs (its local nonzero
//     inputs × rank) plus the `rank` results pipelined through the
//     tree reduction and broadcast, whose first result pays the
//     H-tree flight time once (noc/htree.hpp's htree_flight_cycles);
//   U phase — the slowest PE's row MACs (mapped rows × rank) plus the
//     PE pipeline flush — identical to the cycle engine's formula,
//     which already computes this phase analytically;
//   W phase — the larger of the root's serialisation bound (one
//     delivered activation per cycle) and the slowest PE's consume
//     work (delivered activations × its predicted-active rows), plus
//     the flight time; with no nonzero input nothing is sent and the
//     phase is the PE pipeline flush alone.
//
// tests/engine_equivalence_test pins the V, U and W estimates and every
// event count equal to the cycle engine's on every layer at paper
// scale (64 PEs, radix 4, buffered credit flow control), both uv modes,
// an all-zero image included. The closed form does not model
// arbitration conflicts or credit stalls, so where a fabric contends
// (unbuffered flow control, one-slot buffers or activation queues) its
// cycles run low. Callers
// that need exact cycle truth everywhere use the cycle backend; callers
// that need throughput (model-zoo serving, accuracy sweeps, dataset
// scoring) get an order-of-magnitude faster inference with identical
// predictions.
//
// Like AcceleratorSim, an AnalyticEngine is single-owner scratch: all
// per-inference buffers are members reused across calls.

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

class AnalyticEngine final : public ExecutionEngine {
 public:
  explicit AnalyticEngine(const ArchParams& params);

  EngineKind kind() const noexcept override { return EngineKind::kAnalytic; }
  const ArchParams& params() const noexcept override { return params_; }

  SimResult run(const CompiledNetwork& compiled,
                std::span<const float> input,
                ValidationMode validation = ValidationMode::kFull) override;

  const SimResult& run(
      const CompiledNetwork& compiled, std::span<const float> input,
      ResultArena& arena,
      ValidationMode validation = ValidationMode::kFull) override;

  void set_trace(TraceLog* trace) noexcept override { trace_ = trace; }

 private:
  /// Shared implementation: functional layer loop writing into `out`
  /// (capacity reused — the arena path's low-allocation property).
  void run_into(const CompiledNetwork& compiled,
                std::span<const float> input,
                std::vector<std::int16_t>& input_scratch, SimResult& out);

  /// One layer: bit-exact activations/mask into `result`, then the
  /// closed-form cycle/event/NoC estimates. `act` is the layer input.
  void run_layer_into(const CompiledNetwork& compiled, std::size_t l,
                      std::span<const std::int16_t> act,
                      LayerSimResult& result);

  ArchParams params_;

  // Per-inference scratch (capacity persists across calls).
  std::vector<std::int16_t> v_scratch_;     ///< s = V a
  std::vector<std::uint8_t> mask_scratch_;  ///< predictor bits
  std::vector<std::uint32_t> nz_idx_;       ///< ascending nonzero inputs
  std::vector<std::size_t> pe_nnz_;         ///< per-PE local nonzeros
  std::vector<std::size_t> pe_active_;      ///< per-PE active rows

  TraceLog* trace_ = nullptr;
};

}  // namespace sparsenn
