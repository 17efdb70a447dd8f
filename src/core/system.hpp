#pragma once
// sparsenn::System — the public facade of the library.
//
// One System value carries a full end-to-end reproduction pipeline:
//
//   1. build (or load) a benchmark dataset variant,
//   2. train an MLP with the chosen sparsity-predictor regime
//      (NO-UV / truncated SVD / the paper's end-to-end Alg. 1),
//   3. quantise it to the 16-bit deployment image and compile it for
//      the PE array, one image per uv mode,
//   4. run inferences on the cycle-accurate 64-PE accelerator model,
//      with the predictor enabled (uv_on) or disabled (uv_off ≙ EIE),
//   5. report per-layer cycles, energy and power.
//
// Examples and benches are thin wrappers over this type.

#include <memory>
#include <optional>

#include "arch/area.hpp"
#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "data/dataset.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

/// Everything a reproduction run needs.
struct SystemOptions {
  std::vector<std::size_t> topology = {784, 1000, 10};
  DatasetVariant variant = DatasetVariant::kBasic;
  DatasetOptions data{};
  TrainOptions train{};
  ArchParams arch = ArchParams::paper();
  /// Cost backend simulate()/compare_hardware() dispatch to (see
  /// sim/engine.hpp). kCycle is the paper's verification path;
  /// kAnalytic keeps predictions bit-identical while replacing
  /// per-cycle simulation with closed-form schedule math.
  EngineKind engine = EngineKind::kCycle;
};

/// Mean per-layer hardware cost over a set of inferences.
struct LayerHardwareCost {
  double mean_cycles = 0.0;
  double mean_v_cycles = 0.0;
  double mean_u_cycles = 0.0;
  double mean_w_cycles = 0.0;
  double mean_power_mw = 0.0;
  double mean_energy_uj = 0.0;
  double mean_nnz_inputs = 0.0;
  double mean_active_rows = 0.0;
  double mean_max_pe_active_rows = 0.0;  ///< the slowest PE's active rows
};

/// Side-by-side uv_on / uv_off measurement (the paper's Fig. 7 data).
struct HardwareComparison {
  std::vector<LayerHardwareCost> uv_on;   ///< hidden layers only
  std::vector<LayerHardwareCost> uv_off;
  std::size_t samples = 0;
};

class System {
 public:
  explicit System(SystemOptions options);

  /// Runs dataset generation + training + quantisation + compilation.
  /// Idempotent.
  void prepare();
  bool prepared() const noexcept { return quantized_.has_value(); }

  const DatasetSplit& dataset() const;
  const Network& network() const;
  const TrainReport& train_report() const;
  const QuantizedNetwork& quantized() const;
  const SystemOptions& options() const noexcept { return options_; }

  /// One inference of one test sample on the configured backend
  /// (SystemOptions::engine), on the image prepare() compiled for the
  /// uv mode; on the cycle backend the golden-model cross-check stays
  /// on (single runs are the paper's verification path).
  SimResult simulate(std::size_t test_index, bool use_predictor);

  /// The backend simulate()/compare_hardware() run on.
  EngineKind engine_kind() const noexcept { return options_.engine; }

  /// Multi-threaded batched inference over the test split (see
  /// sim/batch_runner.hpp). Results are deterministic in the thread
  /// count.
  BatchResult simulate_batch(const BatchOptions& options) const;

  /// Measures mean per-hidden-layer cycles and power with the predictor
  /// on and off over the first `samples` test images (Fig. 7).
  HardwareComparison compare_hardware(std::size_t samples);

  /// Area/energy models for the configured architecture.
  AreaBreakdown area() const;
  EnergyModel energy_model() const;

 private:
  SystemOptions options_;
  std::optional<DatasetSplit> split_;
  std::optional<TrainedModel> model_;
  std::optional<QuantizedNetwork> quantized_;
  /// The configured cost backend (created in prepare() from
  /// options_.engine via make_engine).
  std::unique_ptr<ExecutionEngine> engine_;
  /// The quantised network compiled for options_.arch, one image per
  /// uv mode (built in prepare()). Nothing changes quantized_ after
  /// that, so the images never go stale, and simulate(),
  /// simulate_batch() and compare_hardware() share them read-only.
  std::optional<CompiledNetwork> uv_on_;
  std::optional<CompiledNetwork> uv_off_;

  const CompiledNetwork& compiled(bool use_predictor) const {
    return use_predictor ? *uv_on_ : *uv_off_;
  }
};

}  // namespace sparsenn
