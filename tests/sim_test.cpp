// Tests for src/sim: scheduling maps, the cycle-accurate accelerator's
// bit-exactness against the functional model, cycle-count sanity, the
// uv_on/uv_off relationship, and the Table IV platform models.

#include <gtest/gtest.h>

#include <numeric>

#include "sim/accelerator.hpp"
#include "sim/schedule.hpp"
#include "sim/simd_platform.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::tiny_arch;

/// The slices of one layer split its W/U rows and its V columns among
/// the PEs: PE p's local row r is global row p + r·P and its slot s is
/// column p + s·P, so every row and column lands on exactly one PE.
TEST(Schedule, SlicesPartitionAllRowsAndColumns) {
  Rng rng{3};
  Network net{{29, 37, 4}, rng};
  net.set_predictor(0, Predictor::random(37, 29, 3, rng));
  Matrix calib(2, 29, 0.5f);
  const QuantizedNetwork q(net, calib);
  const QuantizedLayer& layer = q.layer(0);
  const ArchParams params = tiny_arch();  // 16 PEs: ragged shares

  std::vector<int> rows_seen(layer.out_dim(), 0);
  std::vector<int> cols_seen(layer.in_dim(), 0);
  for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
    const PeLayerSlice slice = make_pe_slice(layer, params, pe, true);
    ASSERT_EQ(slice.u_view.rows, slice.w_view.rows);
    for (std::size_t r = 0; r < slice.w_view.rows; ++r)
      ++rows_seen.at(pe + r * params.num_pes);
    for (std::size_t s = 0; s < slice.v_view.rows; ++s)
      ++cols_seen.at(pe + s * params.num_pes);
  }
  for (const int count : rows_seen) EXPECT_EQ(count, 1);
  for (const int count : cols_seen) EXPECT_EQ(count, 1);
}

TEST(Schedule, SliceContainsInterleavedRowsAndColumns) {
  Rng rng{1};
  Network net{{12, 10, 4}, rng};
  net.set_predictor(0, Predictor::random(10, 12, 3, rng));
  Matrix calib(2, 12, 0.5f);
  const QuantizedNetwork q(net, calib);
  const QuantizedLayer& layer = q.layer(0);
  ArchParams params = tiny_arch();
  params.num_pes = 4;
  params.router_levels = 1;

  const PeLayerSlice slice = make_pe_slice(layer, params, 1, true);
  EXPECT_EQ(slice.layer_input_dim, 12u);
  EXPECT_EQ(slice.layer_output_dim, 10u);
  EXPECT_EQ(slice.rank, 3u);
  // PE 1 of 4, 10 rows: global rows 1, 5, 9.
  EXPECT_EQ(slice.w_view.rows, 3u);
  EXPECT_EQ(slice.w_view.size(), 3u * 12u);
  EXPECT_EQ(slice.u_view.size(), 3u * 3u);
  // V columns 1, 5, 9 of 12: 3 slots × rank 3.
  EXPECT_EQ(slice.v_view.size(), 3u * 3u);
  // Check an actual W word: slice row 1 == global row 5 (W[5][7] is
  // word (7, 5) of the column-major w_t).
  EXPECT_EQ(slice.w_view.at(1, 7), layer.w_t.at(7, 5));
  // A U word: slice row 2 == global row 9, entry k=1.
  EXPECT_EQ(slice.u_view.at(2, 1), layer.u->at(9, 1));
  // And a V word: slot 1 covers global column 5; entry k=2 (V[2][5]
  // is word (5, 2) of the column-major v_t).
  EXPECT_EQ(slice.v_view.at(1, 2), layer.v_t->at(5, 2));
  // Every view lies in place in the layer's own buffers: W in w_t
  // (base row 1, stride 4 PEs), U in u and V in v_t (base row 1,
  // stride 4 PEs × rank 3).
  EXPECT_EQ(slice.w_view.base, layer.w_t.data.data() + 1);
  EXPECT_EQ(slice.w_view.row_stride, 4u);
  EXPECT_EQ(slice.w_view.col_stride, 10u);
  EXPECT_EQ(slice.u_view.base, layer.u->data.data() + 3);
  EXPECT_EQ(slice.v_view.base, layer.v_t->data.data() + 3);
  EXPECT_EQ(slice.u_view.row_stride, 12u);
  EXPECT_EQ(slice.v_view.row_stride, 12u);
}

TEST(Schedule, UvOffSliceDropsPredictor) {
  Rng rng{2};
  Network net{{12, 10, 4}, rng};
  net.set_predictor(0, Predictor::random(10, 12, 3, rng));
  Matrix calib(2, 12, 0.5f);
  const QuantizedNetwork q(net, calib);
  const PeLayerSlice slice =
      make_pe_slice(q.layer(0), tiny_arch(), 0, /*use_predictor=*/false);
  EXPECT_FALSE(slice.has_predictor);
  EXPECT_EQ(slice.u_view.size(), 0u);
  EXPECT_EQ(slice.v_view.size(), 0u);
}

/// End-to-end bit-exactness: random networks, random inputs, both
/// predictor modes, multiple seeds. The simulator itself enforces the
/// equality via ensures(); the test also re-checks the final output.
class SimExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimExactness, MatchesGoldenModel) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  Network net{{24, 20, 18, 6}, rng};
  net.set_predictor(0, Predictor::random(20, 24, 4, rng));
  net.set_predictor(1, Predictor::random(18, 20, 4, rng));

  Matrix calib(4, 24);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  const QuantizedNetwork q(net, calib);

  AcceleratorSim sim(tiny_arch());
  Vector x(24);
  for (float& v : x)
    v = rng.bernoulli(0.4)
            ? 0.0f
            : static_cast<float>(rng.uniform(0.0, 1.0));

  for (const bool uv_on : {true, false}) {
    const SimResult run = sim.run(q, x, uv_on);
    const auto golden = q.infer_raw(x, uv_on);
    EXPECT_EQ(run.output, golden) << "seed " << seed << " uv " << uv_on;
    EXPECT_EQ(run.layers.size(), 3u);
    EXPECT_GT(run.total_cycles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimExactness,
                         ::testing::Values(3, 7, 11, 19, 23, 31, 43));

TEST(Sim, UvOffSkipsPredictionPhases) {
  Rng rng{5};
  Network net{{16, 12, 5}, rng};
  net.set_predictor(0, Predictor::random(12, 16, 3, rng));
  Matrix calib(2, 16, 0.6f);
  const QuantizedNetwork q(net, calib);
  AcceleratorSim sim(tiny_arch());
  const Vector x(16, 0.5f);

  const SimResult off = sim.run(q, x, false);
  EXPECT_EQ(off.layers[0].v_cycles, 0u);
  EXPECT_EQ(off.layers[0].u_cycles, 0u);
  EXPECT_EQ(off.layers[0].events.u_mem_reads, 0u);
  EXPECT_EQ(off.layers[0].events.v_mem_reads, 0u);
  // Every row computed.
  EXPECT_EQ(off.layers[0].active_rows, 12u);

  const SimResult on = sim.run(q, x, true);
  EXPECT_GT(on.layers[0].v_cycles, 0u);
  EXPECT_GT(on.layers[0].u_cycles, 0u);
  EXPECT_LE(on.layers[0].active_rows, 12u);
}

TEST(Sim, WCyclesBoundedBelowByDeliveryAndConsumption) {
  Rng rng{6};
  Network net{{32, 24, 4}, rng};
  Matrix calib(2, 32, 0.6f);
  const QuantizedNetwork q(net, calib);
  const ArchParams arch = tiny_arch();
  AcceleratorSim sim(arch);
  Vector x(32, 0.0f);
  for (std::size_t i = 0; i < 20; ++i) x[i] = 0.5f;  // 20 nonzeros

  const SimResult run = sim.run(q, x, false);
  const LayerSimResult& l0 = run.layers[0];
  EXPECT_EQ(l0.nnz_inputs, 20u);
  // Delivery bound: one activation per cycle through the root.
  EXPECT_GE(l0.w_cycles, l0.nnz_inputs);
  // Consumption bound: slowest PE = rows_per_pe MACs per activation.
  const std::size_t rows_per_pe =
      (24 + arch.num_pes - 1) / arch.num_pes;
  EXPECT_GE(l0.w_cycles,
            static_cast<std::uint64_t>(l0.nnz_inputs) * rows_per_pe);
  // And not absurdly above it (pipeline + drain margin).
  EXPECT_LE(l0.w_cycles,
            static_cast<std::uint64_t>(l0.nnz_inputs) * rows_per_pe + 200);
}

TEST(Sim, EventCountsMatchArithmetic) {
  Rng rng{7};
  Network net{{16, 12, 5}, rng};
  Matrix calib(2, 16, 0.6f);
  const QuantizedNetwork q(net, calib);
  AcceleratorSim sim(tiny_arch());
  Vector x(16, 0.0f);
  x[0] = x[3] = x[10] = 0.7f;

  const SimResult run = sim.run(q, x, false);
  // Layer 0: every PE multiplies every delivered nonzero with its rows:
  // total MACs = nnz × total rows.
  EXPECT_EQ(run.layers[0].events.macs, 3u * 12u);
  EXPECT_EQ(run.layers[0].events.w_mem_reads, 3u * 12u);
  // Layer 1 consumes layer 0's actual nonzero outputs.
  const std::size_t nnz1 = run.layers[1].nnz_inputs;
  EXPECT_EQ(run.layers[1].events.macs, nnz1 * 5u);
}

TEST(Sim, SparserInputRunsFaster) {
  Rng rng{8};
  Network net{{64, 32, 4}, rng};
  Matrix calib(2, 64, 0.6f);
  const QuantizedNetwork q(net, calib);
  AcceleratorSim sim(tiny_arch());

  Vector dense(64, 0.5f);
  Vector sparse(64, 0.0f);
  for (std::size_t i = 0; i < 16; ++i) sparse[i * 4] = 0.5f;

  const std::uint64_t dense_cycles =
      sim.run(q, dense, false).total_cycles;
  const std::uint64_t sparse_cycles =
      sim.run(q, sparse, false).total_cycles;
  EXPECT_LT(sparse_cycles, dense_cycles);
}

TEST(Sim, PaperScaleSingleLayerRuns) {
  // One 784→1000 layer on the full 64-PE configuration: the headline
  // shape — uv_off cycles ≈ nnz × 16 rows/PE.
  Rng rng{9};
  Network net{{784, 1000, 10}, rng};
  net.set_predictor(0, Predictor::random(1000, 784, 15, rng));
  Matrix calib(2, 784, 0.5f);
  const QuantizedNetwork q(net, calib);
  AcceleratorSim sim(ArchParams::paper());

  Vector x(784, 0.0f);
  for (std::size_t i = 0; i < 784; i += 2) x[i] = 0.5f;  // 392 nonzeros

  const SimResult off = sim.run(q, x, false);
  const std::uint64_t expected = 392u * 16u;
  EXPECT_GE(off.layers[0].w_cycles, expected);
  EXPECT_LE(off.layers[0].w_cycles, expected + 500);
}

// ---- SIMD platform models ----

TEST(SimdPlatform, PublishedOperatingPoints) {
  const SimdPlatform lradnn = lradnn_platform();
  EXPECT_EQ(lradnn.tech_nm, 65);
  EXPECT_NEAR(lradnn.peak_gops, 7.08, 1e-9);
  const SimdPlatform dnn = dnn_engine_platform();
  EXPECT_EQ(dnn.tech_nm, 28);
  EXPECT_EQ(dnn.simd_width, 8u);
}

TEST(SimdPlatform, PaperEnergyExample) {
  // Section VI.C: DNN-Engine takes 785×1000/8 cycles and ≈5.1 µJ for
  // the BG-RAND first hidden layer.
  const SimdPlatform dnn = dnn_engine_platform();
  EXPECT_EQ(simd_layer_cycles(dnn, 1000, 785), 98125u);
  EXPECT_NEAR(simd_layer_energy_uj(dnn, 1000, 785), 5.1, 0.2);
}

TEST(SimdPlatform, TechnologyScalingMatchesPaper) {
  // 1MB @ 28nm → 8MB @ 65nm ≈ 11×.
  const double scaled = scale_energy_for_technology(1.0, 1.0, 28, 8.0, 65);
  EXPECT_NEAR(scaled, 11.0, 1.0);
}

}  // namespace
}  // namespace sparsenn
