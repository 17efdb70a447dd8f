#include "core/system.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"

namespace sparsenn {

System::System(SystemOptions options)
    : options_(std::move(options)) {
  options_.arch.validate();
  expects(options_.topology.size() >= 2, "topology too small");
  for (std::size_t width : options_.topology) {
    expects(width <= options_.arch.max_activations(),
            "layer width exceeds the architecture's activation capacity");
  }
}

void System::prepare() {
  if (prepared()) return;

  log_info("system", "generating dataset ", to_string(options_.variant));
  split_ = make_dataset(options_.variant, options_.data);

  log_info("system", "training (", to_string(options_.train.kind),
           ", rank ", options_.train.rank, ")");
  model_ = train_network(options_.topology, *split_, options_.train);

  log_info("system", "quantising to 16-bit fixed point");
  quantized_.emplace(model_->network, split_->train.inputs);
  engine_ = make_engine(options_.engine, options_.arch);
}

const DatasetSplit& System::dataset() const {
  expects(split_.has_value(), "call prepare() first");
  return *split_;
}

const Network& System::network() const {
  expects(model_.has_value(), "call prepare() first");
  return model_->network;
}

const TrainReport& System::train_report() const {
  expects(model_.has_value(), "call prepare() first");
  return model_->report;
}

const QuantizedNetwork& System::quantized() const {
  expects(quantized_.has_value(), "call prepare() first");
  return *quantized_;
}

SimResult System::simulate(std::size_t test_index, bool use_predictor) {
  expects(prepared(), "call prepare() first");
  expects(test_index < split_->test.size(), "test index out of range");
  // Zoo-cached compile + full validation on the configured backend.
  // On the cycle engine this is bit-identical to the one-shot
  // run(network, …) path, minus the per-call recompile. The analytic
  // engine returns the same predictions, and on the default buffered
  // fabric the same per-layer cycle counts (low on contended fabrics);
  // its event counts are estimates.
  return engine_->run(*compiled(use_predictor),
                      split_->test.image(test_index),
                      ValidationMode::kFull);
}

BatchResult System::simulate_batch(const BatchOptions& options) const {
  expects(prepared(), "call prepare() first");
  // The per-PE slice image comes from the system zoo and is shared
  // read-only across the runner's workers (sim/compiled_network.hpp),
  // and across repeated batches at the same threshold. An unset
  // BatchOptions::engine inherits the system's configured backend;
  // an explicit one overrides it per batch.
  BatchOptions resolved = options;
  if (!resolved.engine) resolved.engine = options_.engine;
  const BatchRunner runner(options_.arch, resolved);
  // The pin outlives the whole batch, so no zoo churn can free the
  // image under the workers.
  const std::shared_ptr<const CompiledNetwork> image =
      compiled(options.use_predictor);
  return runner.run(*image, split_->test);
}

HardwareComparison System::compare_hardware(std::size_t samples) {
  expects(prepared(), "call prepare() first");
  samples = std::min(samples, split_->test.size());
  expects(samples > 0, "need at least one sample");

  const std::size_t hidden = network().num_hidden_layers();
  const EnergyModel energy(options_.arch);

  HardwareComparison out;
  out.samples = samples;
  out.uv_on.assign(hidden, {});
  out.uv_off.assign(hidden, {});

  const auto absorb = [&](std::vector<LayerHardwareCost>& dest,
                          const SimResult& run) {
    for (std::size_t l = 0; l < hidden; ++l) {
      const LayerSimResult& layer = run.layers[l];
      const EnergyReport e = energy.report(layer.events);
      LayerHardwareCost& cost = dest[l];
      cost.mean_cycles += static_cast<double>(layer.total_cycles);
      cost.mean_v_cycles += static_cast<double>(layer.v_cycles);
      cost.mean_u_cycles += static_cast<double>(layer.u_cycles);
      cost.mean_w_cycles += static_cast<double>(layer.w_cycles);
      cost.mean_power_mw += e.avg_power_mw;
      cost.mean_energy_uj += e.total_uj;
      cost.mean_nnz_inputs += static_cast<double>(layer.nnz_inputs);
      cost.mean_active_rows += static_cast<double>(layer.active_rows);
    }
  };

  // Both uv images from the cache (one slot each, so they coexist);
  // the first sample runs with the golden cross-check, the rest trust
  // the engine (results are bit-identical either way).
  const std::shared_ptr<const CompiledNetwork> compiled_on = compiled(true);
  const std::shared_ptr<const CompiledNetwork> compiled_off = compiled(false);
  for (std::size_t i = 0; i < samples; ++i) {
    const ValidationMode mode =
        i == 0 ? ValidationMode::kFull : ValidationMode::kOff;
    absorb(out.uv_on,
           engine_->run(*compiled_on, split_->test.image(i), mode));
    absorb(out.uv_off,
           engine_->run(*compiled_off, split_->test.image(i), mode));
  }

  const auto finish = [&](std::vector<LayerHardwareCost>& dest) {
    const auto n = static_cast<double>(samples);
    for (LayerHardwareCost& cost : dest) {
      cost.mean_cycles /= n;
      cost.mean_v_cycles /= n;
      cost.mean_u_cycles /= n;
      cost.mean_w_cycles /= n;
      cost.mean_power_mw /= n;
      cost.mean_energy_uj /= n;
      cost.mean_nnz_inputs /= n;
      cost.mean_active_rows /= n;
    }
  };
  finish(out.uv_on);
  finish(out.uv_off);
  return out;
}

void System::set_prediction_threshold(double threshold) {
  expects(prepared(), "call prepare() first");
  // Drop the outgoing version's images before switching, so a K-point
  // threshold sweep holds one version's layers, not K.
  zoo_.invalidate(*quantized_);
  quantized_->set_prediction_threshold(threshold);
}

AreaBreakdown System::area() const { return compute_area(options_.arch); }

EnergyModel System::energy_model() const {
  return EnergyModel(options_.arch);
}

}  // namespace sparsenn
