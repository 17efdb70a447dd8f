#pragma once
// Caller-provided result storage for allocation-free inferences.
//
// After the PR-2 compiled engine removed per-cycle allocation, the
// remaining ~9 heap allocations per inference were the result vectors
// themselves: SimResult::layers, one LayerSimResult::activations per
// layer, SimResult::output and the quantised-input buffer. A
// ResultArena owns all of that storage and hands it to
// AcceleratorSim::run(compiled, input, arena, mode), which refills it
// in place; reserve(compiled) pre-sizes every pool from the compiled
// image's layer dimensions, so with ValidationMode::kOff the whole
// inference performs zero heap allocations in steady state
// (tests/result_arena_test asserts exactly 0, for both engines).
//
// The arena is single-owner scratch, exactly like the engine it feeds:
// one arena per worker thread (BatchRunner creates one next to each
// worker's private engine, cycle or analytic). The SimResult returned
// by the arena entry point is a reference into the arena and is
// overwritten by the next run — copy it out if it must survive
// (BatchRunner's keep_results does), or fold it into an accumulator
// before the next call (the batch path).
//
// Validation note: ValidationMode::kFull recomputes the golden
// functional model alongside the simulation, which allocates per layer
// by design; the zero-allocation guarantee applies to kOff runs.

#include <cstdint>
#include <vector>

#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

class ResultArena {
 public:
  ResultArena() = default;
  /// Pre-sizes every pool for `compiled` (see reserve()).
  explicit ResultArena(const CompiledNetwork& compiled) { reserve(compiled); }

  /// Reserves the exact capacities one inference of `compiled` needs:
  /// the per-layer activation vectors, the layers array, the output
  /// vector and the quantised-input scratch. Idempotent; growing to a
  /// larger network later just re-reserves.
  void reserve(const CompiledNetwork& compiled);

  /// The result slot run() fills. Valid until the next run with this
  /// arena (or reserve()).
  SimResult& result() noexcept { return result_; }
  const SimResult& result() const noexcept { return result_; }

  /// Quantised-input scratch used by the arena run() entry point.
  std::vector<std::int16_t>& input_scratch() noexcept {
    return input_scratch_;
  }

 private:
  SimResult result_;
  std::vector<std::int16_t> input_scratch_;
};

}  // namespace sparsenn
