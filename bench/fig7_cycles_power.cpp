// Reproduces paper Fig. 7: per-hidden-layer execution cycles (top) and
// power consumption (bottom) of the 5-layer network on the cycle-
// accurate SparseNN model, with the output-sparsity predictor enabled
// (uv_on) and disabled (uv_off — the EIE-style input-sparsity-only
// baseline), across BASIC / BG-RAND / ROT.
//
// Expected shape (paper):
//   - layer 1 cycle reduction 10%–31% (inputs identical in both modes,
//     gains come from output sparsity alone, limited by the per-PE
//     imbalance of predicted-active rows);
//   - deeper layers up to ~70% (predicted sparsity also raises the
//     next layer's input sparsity);
//   - power reduction ≈ 50% roughly uniformly (fewer W-memory reads,
//     cheap U/V accesses).
//
// The phase table decomposes every point into V, U and W cycles beside
// the mean nonzero inputs and the slowest PE's active rows: W costs
// about nnz_in × that PE's active rows, so a layer gains only where
// uv_on's W saving exceeds its V + U cost (layer 1's break-even).

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/system.hpp"

int main() {
  using namespace sparsenn;
  using namespace sparsenn::bench;

  Scale scale = resolve_scale();
  // The layer-1 cycle reduction depends on rows-per-PE (1000/64 = 16 in
  // the paper); narrower layers lose the effect to per-PE imbalance, so
  // the hardware benches always use the paper's hidden width.
  scale.hidden = 1000;
  announce(scale, "Fig. 7 — execution cycles and power, uv_on vs uv_off");

  Table cycles({"layer", "dataset", "uv_off", "uv_on", "reduction(%)"});
  Table power({"layer", "dataset", "uv_off(mW)", "uv_on(mW)",
               "reduction(%)"});
  Table phases({"layer", "dataset", "mode", "V", "U", "W", "nnz_in",
                "slowest PE active rows"});

  for (const DatasetVariant variant : kAllVariants) {
    SystemOptions options;
    options.variant = variant;
    options.topology = five_layer_topology(scale.hidden);
    options.data = dataset_options(scale);
    options.train = train_options(scale, PredictorKind::kEndToEnd, 15);

    System system(options);
    system.prepare();
    const HardwareComparison hw =
        system.compare_hardware(scale.sim_samples);

    for (std::size_t l = 0; l < hw.uv_on.size(); ++l) {
      const double c_off = hw.uv_off[l].mean_cycles;
      const double c_on = hw.uv_on[l].mean_cycles;
      const double p_off = hw.uv_off[l].mean_power_mw;
      const double p_on = hw.uv_on[l].mean_power_mw;
      cycles.add_row({Cell{l + 1}, std::string{to_string(variant)},
                      Cell{c_off, 0}, Cell{c_on, 0},
                      Cell{100.0 * (1.0 - c_on / c_off), 1}});
      power.add_row({Cell{l + 1}, std::string{to_string(variant)},
                     Cell{p_off, 1}, Cell{p_on, 1},
                     Cell{100.0 * (1.0 - p_on / p_off), 1}});
      for (const bool on : {false, true}) {
        const LayerHardwareCost& c = on ? hw.uv_on[l] : hw.uv_off[l];
        phases.add_row({Cell{l + 1}, std::string{to_string(variant)},
                        on ? "uv_on" : "uv_off", Cell{c.mean_v_cycles, 0},
                        Cell{c.mean_u_cycles, 0}, Cell{c.mean_w_cycles, 0},
                        Cell{c.mean_nnz_inputs, 1},
                        Cell{c.mean_max_pe_active_rows, 1}});
      }
    }
  }

  print_section(std::cout,
                "Fig. 7 (top) — execution cycles per hidden layer");
  cycles.print(std::cout);
  cycles.save_csv("fig7_cycles.csv");

  print_section(std::cout,
                "Fig. 7 (top, by phase) — V/U/W cycles, nonzero inputs "
                "and the slowest PE's active rows");
  phases.print(std::cout);
  phases.save_csv("fig7_phases.csv");

  print_section(std::cout,
                "Fig. 7 (bottom) — power consumption per hidden layer");
  power.print(std::cout);
  power.save_csv("fig7_power.csv");
  return 0;
}
