// Cross-backend equivalence (sim/engine.hpp): the analytic engine's
// predictions — per-layer activations, nnz/active-row counts, output
// logits and therefore argmax labels — must be bit-exact vs the
// cycle-accurate engine on real data, for both uv modes, from the same
// ModelZoo-served compiled image. This is the contract that lets a
// serving path swap backends per request without changing a single
// classification.
//
// Two datasets per the acceptance criteria: the procedural digits
// generator (the repo's default benchmark) and the checked-in 4-image
// MNIST IDX fixture (tests/data/idx-tiny).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/model_zoo.hpp"
#include "data/dataset.hpp"
#include "data/mnist_io.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "sim/accelerator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/engine.hpp"
#include "sim/result_arena.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

/// A paper-architecture (784-input) network with predictors on both
/// hidden layers — small enough that cycle-simulating a handful of
/// images stays fast, wide enough to exercise every phase.
QuantizedNetwork make_network(const Matrix& calibration) {
  Rng rng{2024};
  Network net{{784, 64, 32, 10}, rng};
  net.set_predictor(0, Predictor::random(64, 784, 6, rng));
  net.set_predictor(1, Predictor::random(32, 64, 6, rng));
  return QuantizedNetwork(net, calibration);
}

std::size_t argmax_i16(const std::vector<std::int16_t>& v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

/// Runs every image on both backends from one shared zoo image and
/// asserts the prediction contract (plus the U-phase cycle formula,
/// which both backends compute identically).
void expect_equivalent(const QuantizedNetwork& network,
                       const Matrix& images, std::size_t samples) {
  const ArchParams arch = ArchParams::paper();
  ModelZoo zoo(arch);
  const std::unique_ptr<ExecutionEngine> cycle =
      make_engine(EngineKind::kCycle, arch);
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  ASSERT_EQ(cycle->kind(), EngineKind::kCycle);
  ASSERT_EQ(analytic->kind(), EngineKind::kAnalytic);

  samples = std::min(samples, images.rows());
  ASSERT_GT(samples, 0u);
  for (const bool uv_on : {true, false}) {
    // Bind the pin, not a reference into a temporary shared_ptr.
    const std::shared_ptr<const CompiledNetwork> image =
        zoo.get(network, uv_on);
    const CompiledNetwork& compiled = *image;
    for (std::size_t i = 0; i < samples; ++i) {
      const SimResult exact =
          cycle->run(compiled, images.row(i), ValidationMode::kFull);
      const SimResult fast =
          analytic->run(compiled, images.row(i), ValidationMode::kOff);

      ASSERT_EQ(exact.layers.size(), fast.layers.size());
      for (std::size_t l = 0; l < exact.layers.size(); ++l) {
        EXPECT_EQ(exact.layers[l].activations, fast.layers[l].activations)
            << "layer " << l << " sample " << i << " uv " << uv_on;
        EXPECT_EQ(exact.layers[l].nnz_inputs, fast.layers[l].nnz_inputs);
        EXPECT_EQ(exact.layers[l].active_rows, fast.layers[l].active_rows);
        // The U phase is analytic even in the cycle engine (slowest
        // PE's rows × rank), and on this uncontended fabric the V and
        // W closed forms are exact too, so all three phases agree.
        EXPECT_EQ(exact.layers[l].v_cycles, fast.layers[l].v_cycles)
            << "layer " << l << " sample " << i << " uv " << uv_on;
        EXPECT_EQ(exact.layers[l].u_cycles, fast.layers[l].u_cycles);
        EXPECT_EQ(exact.layers[l].w_cycles, fast.layers[l].w_cycles)
            << "layer " << l << " sample " << i << " uv " << uv_on;
      }
      EXPECT_EQ(exact.output, fast.output) << "sample " << i;
      EXPECT_EQ(argmax_i16(exact.output), argmax_i16(fast.output));
      // Estimates must at least be live numbers in the right shape; the
      // MAC count follows exactly from the functional work.
      EXPECT_GT(fast.total_cycles, 0u);
      EXPECT_EQ(exact.total_events().macs, fast.total_events().macs);
      if (exact.layers.front().nnz_inputs > 0) {
        EXPECT_GT(fast.total_events().macs, 0u);
      }
    }
  }
  // One image per uv mode, compiled once each, shared by both backends.
  EXPECT_EQ(zoo.compile_count(), 2u);
}

TEST(EngineEquivalence, ProceduralDigits) {
  DatasetOptions options;
  options.train_size = 32;  // calibration only — no training involved
  options.test_size = 6;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  const QuantizedNetwork network = make_network(split.train.inputs);
  expect_equivalent(network, split.test.inputs, 6);
}

// A layer with no nonzero input sends nothing through the NoC, so the
// cycle engine's W phase is the PE pipeline flush alone; the analytic
// estimate must not charge the tree's flight time for it. An all-zero
// image makes every layer such a layer (and in uv_off mode runs no MAC
// at all); a real image rides along in the same run.
TEST(EngineEquivalence, AllZeroImage) {
  DatasetOptions options;
  options.train_size = 16;
  options.test_size = 1;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  const QuantizedNetwork network = make_network(split.train.inputs);
  Matrix images(2, split.test.inputs.cols(), 0.0f);
  const auto image = split.test.inputs.row(0);
  std::copy(image.begin(), image.end(), images.row(1).begin());
  expect_equivalent(network, images, images.rows());
}

TEST(EngineEquivalence, IdxTinyMnist) {
  const std::string dir = std::string(SPARSENN_TEST_DATA_DIR) + "/idx-tiny";
  const auto images = load_idx_images(dir + "/train-images-idx3-ubyte");
  ASSERT_TRUE(images.has_value());
  ASSERT_EQ(images->cols(), 784u);
  const QuantizedNetwork network = make_network(*images);
  expect_equivalent(network, *images, images->rows());
}

/// Event-driven advancement vs pure per-cycle at paper scale (64 PEs,
/// 3-level NoC, 784-wide input): full SimResult equality — cycles,
/// events, arbitration conflicts, credit stalls, occupancy sums — for
/// both uv modes. The wide first layer keeps the NoC saturated long
/// enough that the stalled-NoC window is exercised, not just the
/// V-burst and drain-tail windows.
TEST(EngineEquivalence, SteppingModesBitIdenticalAtPaperScale) {
  DatasetOptions options;
  options.train_size = 16;
  options.test_size = 4;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  const QuantizedNetwork network = make_network(split.train.inputs);

  const ArchParams arch = ArchParams::paper();
  AcceleratorSim event(arch);
  AcceleratorSim per_cycle(arch);
  per_cycle.set_stepping_mode(SteppingMode::kPerCycle);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(network, arch, uv_on);
    for (std::size_t i = 0; i < split.test.inputs.rows(); ++i) {
      const SimResult expected = per_cycle.run(
          compiled, split.test.inputs.row(i), ValidationMode::kOff);
      const SimResult evented = event.run(
          compiled, split.test.inputs.row(i), ValidationMode::kOff);
      EXPECT_EQ(evented, expected)
          << "event sample " << i << " uv " << uv_on;
    }
  }
}

TEST(EngineEquivalence, ArenaPathMatchesHeapPath) {
  DatasetOptions options;
  options.train_size = 16;
  options.test_size = 4;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  const QuantizedNetwork network = make_network(split.train.inputs);

  const ArchParams arch = ArchParams::paper();
  const CompiledNetwork compiled(network, arch, /*use_predictor=*/true);
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  ResultArena arena(compiled);
  for (std::size_t i = 0; i < split.test.inputs.rows(); ++i) {
    const SimResult heap = analytic->run(compiled, split.test.image(i),
                                         ValidationMode::kOff);
    const SimResult& pooled = analytic->run(
        compiled, split.test.image(i), arena, ValidationMode::kOff);
    EXPECT_EQ(heap, pooled) << "sample " << i;
  }
}

TEST(EngineEquivalence, AnalyticRejectsStaleImages) {
  DatasetOptions options;
  options.train_size = 16;
  options.test_size = 1;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  QuantizedNetwork network = make_network(split.train.inputs);

  const ArchParams arch = ArchParams::paper();
  const CompiledNetwork compiled(network, arch, /*use_predictor=*/true);
  network.set_prediction_threshold(0.25);  // epoch moves → image stale
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  EXPECT_THROW(
      (void)analytic->run(compiled, split.test.image(0)),
      std::invalid_argument);
}

TEST(EngineEquivalence, BatchRunnerMatchesAcrossBackends) {
  // BatchOptions::engine threads the backend choice through the
  // worker pool: classification outcomes and the exact sparsity
  // totals must match the cycle backend for any thread count.
  const auto fixture = test_fixtures::make_batch_fixture(24, 77);
  const auto run = [&](EngineKind engine, std::size_t threads) {
    BatchOptions options;
    options.engine = engine;
    options.num_threads = threads;
    options.keep_results = false;
    return BatchRunner(test_fixtures::tiny_arch(), options)
        .run(fixture.network, fixture.data);
  };

  const BatchResult exact = run(EngineKind::kCycle, 1);
  for (const std::size_t threads : {1u, 3u}) {
    const BatchResult fast = run(EngineKind::kAnalytic, threads);
    EXPECT_EQ(fast.error_rate_percent, exact.error_rate_percent);
    EXPECT_EQ(fast.num_inferences, exact.num_inferences);
    ASSERT_EQ(fast.layers.size(), exact.layers.size());
    for (std::size_t l = 0; l < exact.layers.size(); ++l) {
      EXPECT_EQ(fast.layers[l].nnz_inputs, exact.layers[l].nnz_inputs);
      EXPECT_EQ(fast.layers[l].active_rows, exact.layers[l].active_rows);
    }
    EXPECT_GT(fast.total_cycles, 0u);
  }
}

TEST(EngineKindNames, RoundTrip) {
  EXPECT_STREQ(to_string(EngineKind::kCycle), "cycle");
  EXPECT_STREQ(to_string(EngineKind::kAnalytic), "analytic");
  EXPECT_EQ(parse_engine_kind("cycle"), EngineKind::kCycle);
  EXPECT_EQ(parse_engine_kind("analytic"), EngineKind::kAnalytic);
  EXPECT_FALSE(parse_engine_kind("warp").has_value());
  EXPECT_FALSE(parse_engine_kind("").has_value());
}

}  // namespace
}  // namespace sparsenn
