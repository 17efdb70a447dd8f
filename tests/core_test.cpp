// Tests for the public facade (core/system.hpp) plus whole-pipeline
// integration properties: training → quantisation → cycle-accurate
// simulation → energy reporting.

#include <gtest/gtest.h>

#include "core/system.hpp"

namespace sparsenn {
namespace {

SystemOptions tiny_options(PredictorKind kind = PredictorKind::kEndToEnd) {
  SystemOptions options;
  options.topology = {784, 96, 10};
  options.variant = DatasetVariant::kBasic;
  options.data.train_size = 600;
  options.data.test_size = 120;
  options.train.kind = kind;
  options.train.rank = 6;
  options.train.epochs = 3;
  return options;
}

TEST(System, RequiresPrepare) {
  System system(tiny_options());
  EXPECT_FALSE(system.prepared());
  EXPECT_THROW(system.network(), std::invalid_argument);
  EXPECT_THROW(system.simulate(0, true), std::invalid_argument);
  EXPECT_THROW(system.compare_hardware(1), std::invalid_argument);
}

TEST(System, RejectsOversizedTopology) {
  SystemOptions options = tiny_options();
  options.topology = {784, 5000, 10};  // > 4096 activations
  EXPECT_THROW(System{options}, std::invalid_argument);
}

TEST(System, PrepareIsIdempotent) {
  System system(tiny_options());
  system.prepare();
  const double ter = system.train_report().final_eval.test_error_rate;
  system.prepare();  // no retraining
  EXPECT_EQ(system.train_report().final_eval.test_error_rate, ter);
}

TEST(System, EndToEndPipeline) {
  System system(tiny_options());
  system.prepare();

  // Training learned something real.
  EXPECT_LT(system.train_report().final_eval.test_error_rate, 60.0);

  // Simulation runs and the facade exposes consistent layer counts.
  const SimResult on = system.simulate(0, true);
  const SimResult off = system.simulate(0, false);
  EXPECT_EQ(on.layers.size(), 2u);
  EXPECT_EQ(on.output.size(), 10u);

  // uv_off computes all rows; uv_on computes a subset.
  EXPECT_EQ(off.layers[0].active_rows, 96u);
  EXPECT_LE(on.layers[0].active_rows, 96u);

  // The energy model sees fewer W reads with the predictor on.
  EXPECT_LE(on.layers[0].events.w_mem_reads,
            off.layers[0].events.w_mem_reads);
}

TEST(System, AnalyticEngineServesIdenticalPredictions) {
  SystemOptions options = tiny_options();
  options.engine = EngineKind::kAnalytic;
  System system(options);
  system.prepare();
  EXPECT_EQ(system.engine_kind(), EngineKind::kAnalytic);

  // The analytic backend's output must equal the functional
  // fixed-point model exactly (which the cycle backend is in turn
  // validated against), for both uv modes, with the usual one compile
  // per (epoch, uv) through the ModelZoo.
  for (const bool uv_on : {true, false}) {
    const SimResult run = system.simulate(0, uv_on);
    EXPECT_EQ(run.output, system.quantized().infer_raw(
                              system.dataset().test.image(0), uv_on));
    EXPECT_GT(run.total_cycles, 0u);
  }
  (void)system.simulate(1, true);
  EXPECT_EQ(system.compiled_network_compile_count(), 2u);

  // An unset BatchOptions::engine inherits the system's backend: the
  // batch totals carry the analytic engine's estimates, not the cycle
  // engine's counts (an explicit override still wins). The two agree
  // on cycles here, so the event totals tell the backends apart.
  BatchOptions batch;
  batch.max_samples = 4;
  batch.keep_results = false;
  const BatchResult inherited = system.simulate_batch(batch);
  batch.engine = EngineKind::kAnalytic;
  const BatchResult analytic = system.simulate_batch(batch);
  batch.engine = EngineKind::kCycle;
  const BatchResult cycle = system.simulate_batch(batch);
  EXPECT_EQ(inherited.total_cycles, analytic.total_cycles);
  EXPECT_EQ(inherited.total_events, analytic.total_events);
  EXPECT_EQ(inherited.error_rate_percent, cycle.error_rate_percent);
  EXPECT_NE(cycle.total_events, analytic.total_events);
}

TEST(System, CompareHardwareShapes) {
  System system(tiny_options());
  system.prepare();
  const HardwareComparison hw = system.compare_hardware(2);
  ASSERT_EQ(hw.uv_on.size(), 1u);
  ASSERT_EQ(hw.uv_off.size(), 1u);
  EXPECT_EQ(hw.samples, 2u);
  EXPECT_GT(hw.uv_on[0].mean_cycles, 0.0);
  EXPECT_GT(hw.uv_off[0].mean_power_mw, 0.0);
  // The predictor reduces energy per layer (power may go either way at
  // tiny layer sizes, energy must drop or match).
  EXPECT_LE(hw.uv_on[0].mean_energy_uj,
            hw.uv_off[0].mean_energy_uj * 1.05);
}

TEST(System, AreaAndEnergyModelsExposed) {
  System system(tiny_options());
  const AreaBreakdown area = system.area();
  EXPECT_GT(area.total_mm2(), 10.0);
  const EnergyModel energy = system.energy_model();
  EXPECT_GT(energy.w_read_pj(), energy.u_read_pj());
}

TEST(System, NoUvSystemSimulatesWithoutPredictorPhases) {
  System system(tiny_options(PredictorKind::kNone));
  system.prepare();
  const SimResult run = system.simulate(0, true);
  EXPECT_EQ(run.layers[0].v_cycles, 0u);
  EXPECT_EQ(run.layers[0].u_cycles, 0u);
}

TEST(Integration, QuantisedAccuracyTracksFloat) {
  System system(tiny_options());
  system.prepare();
  const double float_ter =
      system.train_report().final_eval.test_error_rate;
  const double fixed_ter = system.quantized().test_error_rate(
      system.dataset().test.inputs, system.dataset().test.labels);
  EXPECT_NEAR(fixed_ter, float_ter, 6.0);
}

TEST(Integration, DeeperLayersGainMoreFromPredictor) {
  // The paper's core hardware observation: deeper layers benefit from
  // output sparsity twice (mask + sparser inputs), so their relative
  // cycle reduction is at least as large as layer 1's, measured here
  // on a 3-hidden-layer system.
  SystemOptions options = tiny_options();
  options.topology = {784, 128, 128, 10};
  options.train.epochs = 3;
  System system(options);
  system.prepare();
  const HardwareComparison hw = system.compare_hardware(2);
  ASSERT_EQ(hw.uv_on.size(), 2u);
  const double r1 =
      1.0 - hw.uv_on[0].mean_cycles / hw.uv_off[0].mean_cycles;
  const double r2 =
      1.0 - hw.uv_on[1].mean_cycles / hw.uv_off[1].mean_cycles;
  EXPECT_GT(r2, r1 - 0.05);
}

}  // namespace
}  // namespace sparsenn
