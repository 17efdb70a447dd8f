#pragma once
// Multi-threaded batched-inference driver.
//
// BatchRunner shards a set of inputs across N worker threads, each
// owning a private ExecutionEngine backend (sim/engine.hpp; the cycle
// or analytic engine per BatchOptions::engine) — engines are stateful
// scratch owners, so instances cannot be shared. The network, however,
// is compiled to its per-PE slice image exactly once per batch
// (sim/compiled_network.hpp) and shared read-only by every worker:
// per-inference work touches only input-dependent state.
// Work is handed out through an atomic cursor, every inference writes
// its SimResult into a preallocated slot indexed by input, and
// aggregation happens after the join in input order. The merged
// totals are therefore bit-identical regardless of thread count or OS
// scheduling: integer sums over a fixed sequence do not depend on
// which worker produced each element.
//
// With keep_results=false each worker folds inferences into a private
// accumulator through a per-worker ResultArena
// (sim/result_arena.hpp): past the batch's single validated inference
// (BatchValidation::kFirstInference) a worker performs zero heap
// allocations per inference —
// bench/sim_throughput asserts the marginal allocation count is
// exactly 0 and tests/result_arena_test pins it.

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "data/dataset.hpp"
#include "nn/quantized.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

/// How much golden-model cross-checking a batch performs. Results are
/// bit-identical in every mode; validation only recomputes the
/// functional model alongside the simulation and asserts equality.
enum class BatchValidation {
  kFull,            ///< every layer of every inference (debug)
  kFirstInference,  ///< exactly ONE inference per batch is validated —
                    ///< whichever worker claims the shared atomic flag
                    ///< first — then every worker trusts the compiled
                    ///< engine (default). Per-batch, not per-worker:
                    ///< all workers run the same compiled image, so
                    ///< one cross-check covers the batch and the
                    ///< validation cost stays O(1) in the thread count.
  kOff,             ///< no cross-checking
};

struct BatchOptions {
  std::size_t num_threads = 0;  ///< 0 = std::thread::hardware_concurrency()
  bool use_predictor = true;    ///< uv_on (paper) vs uv_off (EIE baseline)
  std::size_t max_samples = 0;  ///< 0 = the whole dataset
  bool keep_results = true;     ///< retain the per-input SimResults
  BatchValidation validation = BatchValidation::kFirstInference;
  /// Cost backend each worker instantiates (sim/engine.hpp): kCycle
  /// for exact cycles/events, kAnalytic for bit-identical predictions
  /// at an order of magnitude more inferences per second. Unset means
  /// inherit: System::simulate_batch fills in the system's configured
  /// engine; a standalone BatchRunner resolves it to kCycle.
  std::optional<EngineKind> engine;
  /// How each worker's cycle engine advances time; both modes are
  /// bit-identical. Unset inherits like `engine`:
  /// System::simulate_batch fills in the system's configured mode; a
  /// standalone BatchRunner resolves it to kEvent. The analytic
  /// backend ignores it.
  std::optional<SteppingMode> stepping;
};

/// Aggregate per-layer totals over the whole batch (exact integer sums).
struct LayerBatchTotals {
  std::uint64_t v_cycles = 0;
  std::uint64_t u_cycles = 0;
  std::uint64_t w_cycles = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t nnz_inputs = 0;
  std::uint64_t active_rows = 0;
  EventCounts events;

  LayerBatchTotals() = default;
  /// Converting constructor: lifting a per-inference layer result into
  /// totals form keeps the field-by-field sum list in one place
  /// (operator+= below) instead of two overloads.
  explicit LayerBatchTotals(const LayerSimResult& layer) noexcept;

  LayerBatchTotals& operator+=(const LayerBatchTotals& other) noexcept;
  LayerBatchTotals& operator+=(const LayerSimResult& layer) noexcept {
    return *this += LayerBatchTotals(layer);
  }
};

struct BatchResult {
  /// Per-input results in dataset order; empty when !keep_results.
  std::vector<SimResult> results;
  std::vector<LayerBatchTotals> layers;
  EventCounts total_events;
  std::uint64_t total_cycles = 0;
  std::size_t num_inferences = 0;
  std::size_t num_threads = 0;   ///< workers actually used
  /// Inferences that ran with the golden cross-check on: total under
  /// kFull, exactly 1 under kFirstInference (when any ran), 0 under
  /// kOff — observability for the validation contract.
  std::size_t validated_inferences = 0;
  double wall_seconds = 0.0;
  /// Classification error over the batch (percent); -1 when the
  /// dataset carries no labels.
  double error_rate_percent = -1.0;

  double inferences_per_second() const noexcept;
  double cycles_per_inference() const noexcept;
};

class BatchRunner {
 public:
  explicit BatchRunner(const ArchParams& params, BatchOptions options = {});

  const BatchOptions& options() const noexcept { return options_; }

  /// Runs the first min(max_samples, data.size()) test images through
  /// the accelerator, compiling the network once for the whole batch.
  /// Worker exceptions (e.g. a golden-model divergence) abort the
  /// batch and rethrow on the calling thread.
  BatchResult run(const QuantizedNetwork& network, const Dataset& data) const;

  /// Same, from an already-compiled network (shared read-only across
  /// the workers). `compiled` must match this runner's ArchParams and
  /// options().use_predictor, and must outlive the call.
  BatchResult run(const CompiledNetwork& compiled, const Dataset& data) const;

 private:
  ArchParams params_;
  BatchOptions options_;
};

}  // namespace sparsenn
