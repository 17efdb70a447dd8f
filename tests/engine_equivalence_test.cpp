// Cross-backend equivalence (sim/engine.hpp): the analytic engine's
// predictions — per-layer activations, nnz/active-row counts (and the
// slowest PE's shares of each), output logits and therefore argmax
// labels — must be bit-exact vs the
// cycle-accurate engine on real data, for both uv modes, from the same
// compiled image. This is the contract that lets a
// serving path swap backends per request without changing a single
// classification. On the paper's fabric the costs agree too: V/U/W
// cycles, every event count (both engines count from the census,
// sim/census.hpp) and the NoC flit counts. Only the contention
// statistics — arbitration conflicts, credit stalls, leaf occupancy —
// are the cycle engine's alone: the analytic engine models no
// congestion and leaves them at zero.
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
#include "data/dataset.hpp"
#include "data/mnist_io.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
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

/// The EventCounts fields in declaration order, so a mismatch prints
/// which one differs.
std::vector<std::uint64_t> fields(const EventCounts& e) {
  return {e.w_mem_reads,    e.u_mem_reads,    e.v_mem_reads,
          e.macs,           e.act_reg_reads,  e.act_reg_writes,
          e.queue_ops,      e.predictor_bits, e.lnzd_scans,
          e.router_flits,   e.router_acc_ops, e.cycles,
          e.pe_active_cycles};
}

/// The timing-independent NoC statistics: flit hops, reduction adds
/// and root flits (conflicts, stalls and occupancy are contention).
std::vector<std::uint64_t> flit_counts(const NocStats& n) {
  return {n.flit_hops, n.acc_operations, n.root_flits};
}

std::size_t argmax_i16(const std::vector<std::int16_t>& v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

/// Runs every image on both backends from one shared compiled image
/// per uv mode and asserts the prediction contract, plus, on this paper
/// fabric, equal per-layer cycles, event counts and NoC flit counts.
void expect_equivalent(const QuantizedNetwork& network,
                       const Matrix& images, std::size_t samples) {
  const ArchParams arch = ArchParams::paper();
  const std::unique_ptr<ExecutionEngine> cycle =
      make_engine(EngineKind::kCycle, arch);
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  ASSERT_EQ(cycle->kind(), EngineKind::kCycle);
  ASSERT_EQ(analytic->kind(), EngineKind::kAnalytic);

  samples = std::min(samples, images.rows());
  ASSERT_GT(samples, 0u);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(network, arch, uv_on);
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
        // The slowest PE's shares, which set the V and W terms: the
        // cycle engine reads them off its PEs, the analytic engine off
        // its interleave census.
        EXPECT_EQ(exact.layers[l].max_pe_nnz_inputs,
                  fast.layers[l].max_pe_nnz_inputs)
            << "layer " << l << " sample " << i << " uv " << uv_on;
        EXPECT_EQ(exact.layers[l].max_pe_active_rows,
                  fast.layers[l].max_pe_active_rows)
            << "layer " << l << " sample " << i << " uv " << uv_on;
        // The U phase is analytic even in the cycle engine (slowest
        // PE's rows × rank), and on this uncontended fabric the V and
        // W closed forms are exact too, so all three phases agree.
        EXPECT_EQ(exact.layers[l].v_cycles, fast.layers[l].v_cycles)
            << "layer " << l << " sample " << i << " uv " << uv_on;
        EXPECT_EQ(exact.layers[l].u_cycles, fast.layers[l].u_cycles);
        EXPECT_EQ(exact.layers[l].w_cycles, fast.layers[l].w_cycles)
            << "layer " << l << " sample " << i << " uv " << uv_on;
        // Every event count, and so every energy term, and the NoC's
        // flit counts; contention statistics are the named exception.
        EXPECT_EQ(fields(exact.layers[l].events),
                  fields(fast.layers[l].events))
            << "layer " << l << " sample " << i << " uv " << uv_on;
        EXPECT_EQ(flit_counts(exact.layers[l].v_noc),
                  flit_counts(fast.layers[l].v_noc))
            << "layer " << l << " sample " << i << " uv " << uv_on;
        EXPECT_EQ(flit_counts(exact.layers[l].w_noc),
                  flit_counts(fast.layers[l].w_noc))
            << "layer " << l << " sample " << i << " uv " << uv_on;
      }
      EXPECT_EQ(exact.output, fast.output) << "sample " << i;
      EXPECT_EQ(argmax_i16(exact.output), argmax_i16(fast.output));
      EXPECT_GT(fast.total_cycles, 0u);
      if (exact.layers.front().nnz_inputs > 0) {
        EXPECT_GT(fast.total_events().macs, 0u);
      }
    }
  }
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

// Per-layer EventCounts sums of the census probe below, recorded from
// the cycle engine's per-PE event counters before the census replaced
// them. Those counters charged a V-phase reduction again each cycle a
// closed parent credit window cancelled it; router_acc_ops is entered
// at one charge per committed reduction instead: (P − 1)·rank =
// 63·15 per V phase, 9 images. Field order as in fields().
constexpr std::uint64_t kProbeSums[2][4][13] = {
    {// uv_on
     {1732507, 135000, 52530, 1920037, 7004, 9000, 456896, 18000, 7004,
      89718, 8505, 47005, 1928677},
     {984875, 135000, 29625, 1149500, 3950, 9000, 261440, 18000, 3950,
      53070, 8505, 26625, 1158140},
     {981931, 135000, 29835, 1146766, 3978, 9000, 263232, 18000, 3978,
      53406, 8505, 27550, 1155406},
     {19630, 0, 0, 19630, 1963, 90, 251264, 90, 1963, 47112, 0, 2040,
      125632}},
    {// uv_off
     {3502000, 0, 0, 3502000, 3502, 9000, 448256, 9000, 3502, 84048, 0,
      56109, 3502000},
     {4038000, 0, 0, 4038000, 4038, 9000, 516864, 9000, 4038, 96912, 0,
      64685, 4038000},
     {4059000, 0, 0, 4059000, 4059, 9000, 519552, 9000, 4059, 97416, 0,
      65021, 4059000},
     {39540, 0, 0, 39540, 3954, 90, 506112, 90, 3954, 94896, 0, 4031,
      253056}}};

// The census probe: the paper's 784-1000-1000-1000-10 net with rank-15
// random predictors (seed 20), calibrated on 8 BASIC training images,
// run on 4 BASIC and 4 BG-RAND test images and an all-zero one. Both
// engines' per-layer sums must equal the recorded counts in both uv
// modes.
TEST(EngineEquivalence, CensusReproducesRecordedCountsOnThePaperNet) {
  DatasetOptions options;
  options.train_size = 8;
  options.test_size = 4;
  const DatasetSplit basic = make_dataset(DatasetVariant::kBasic, options);
  const DatasetSplit bg_rand =
      make_dataset(DatasetVariant::kBgRand, options);
  Rng rng{20};
  Network net{five_layer_topology(1000), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto sizes = net.layer_sizes();
    net.set_predictor(l,
                      Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  const QuantizedNetwork network(net, basic.train.inputs);
  Matrix images(9, 784, 0.0f);  // row 8 stays all-zero
  for (std::size_t i = 0; i < 4; ++i) {
    std::copy(basic.test.image(i).begin(), basic.test.image(i).end(),
              images.row(i).begin());
    std::copy(bg_rand.test.image(i).begin(), bg_rand.test.image(i).end(),
              images.row(4 + i).begin());
  }

  const ArchParams arch = ArchParams::paper();
  AcceleratorSim cycle(arch);
  AnalyticEngine analytic(arch);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(network, arch, uv_on);
    std::vector<EventCounts> cycle_sums(4), analytic_sums(4);
    for (std::size_t i = 0; i < images.rows(); ++i) {
      const SimResult exact =
          cycle.run(compiled, images.row(i), ValidationMode::kFull);
      const SimResult fast =
          analytic.run(compiled, images.row(i), ValidationMode::kOff);
      ASSERT_EQ(exact.layers.size(), 4u);
      ASSERT_EQ(fast.layers.size(), 4u);
      for (std::size_t l = 0; l < 4; ++l) {
        cycle_sums[l] += exact.layers[l].events;
        analytic_sums[l] += fast.layers[l].events;
      }
    }
    for (std::size_t l = 0; l < 4; ++l) {
      const auto& row = kProbeSums[uv_on ? 0 : 1][l];
      const std::vector<std::uint64_t> recorded(std::begin(row),
                                                std::end(row));
      EXPECT_EQ(fields(cycle_sums[l]), recorded)
          << "cycle layer " << l << " uv " << uv_on;
      EXPECT_EQ(fields(analytic_sums[l]), recorded)
          << "analytic layer " << l << " uv " << uv_on;
    }
  }
}

/// Event-driven advancement vs pure per-cycle at paper scale (64 PEs,
/// 3-level NoC, 784-wide input): full SimResult equality — cycles,
/// events, arbitration conflicts, credit stalls, occupancy sums — for
/// both uv modes. The wide first layer keeps the NoC saturated long
/// enough that W-phase routers sit credit-blocked for stretches the
/// event core settles lazily, not just the V-burst window.
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

TEST(EngineEquivalence, AnalyticImageKeepsItsVersion) {
  DatasetOptions options;
  options.train_size = 16;
  options.test_size = 1;
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  QuantizedNetwork network = make_network(split.train.inputs);
  const QuantizedNetwork original = network;

  const ArchParams arch = ArchParams::paper();
  const CompiledNetwork compiled(network, arch, /*use_predictor=*/true);
  network.set_prediction_threshold(0.25);  // a new version for `network`
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  EXPECT_EQ(analytic->run(compiled, split.test.image(0)),
            analytic->run(CompiledNetwork(original, arch, true),
                          split.test.image(0)));
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
