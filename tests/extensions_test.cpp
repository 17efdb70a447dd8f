// Tests for the library extensions beyond the paper's core: model
// serialization, the deploy-time prediction threshold, architecture
// scaling sweeps, and fault-injection on the NoC protocol.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/system.hpp"
#include "nn/serialize.hpp"
#include "noc/router.hpp"
#include "pe/act_queue.hpp"
#include "sim/accelerator.hpp"

namespace sparsenn {
namespace {

Network make_model(std::uint64_t seed, bool with_predictors = true) {
  Rng rng{seed};
  Network net{{20, 16, 12, 4}, rng};
  if (with_predictors) {
    net.set_predictor(0, Predictor::random(16, 20, 3, rng));
    net.set_predictor(1, Predictor::random(12, 16, 3, rng));
  }
  return net;
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Network original = make_model(1);
  std::stringstream buffer;
  save_network(original, buffer);
  const Network restored = load_network(buffer);

  ASSERT_EQ(restored.layer_sizes(), original.layer_sizes());
  for (std::size_t l = 0; l < original.num_weight_layers(); ++l)
    EXPECT_EQ(restored.weight(l), original.weight(l));
  for (std::size_t l = 0; l < original.num_hidden_layers(); ++l) {
    ASSERT_EQ(restored.has_predictor(l), original.has_predictor(l));
    if (original.has_predictor(l)) {
      EXPECT_EQ(restored.predictor(l).u(), original.predictor(l).u());
      EXPECT_EQ(restored.predictor(l).v(), original.predictor(l).v());
    }
  }
}

TEST(Serialize, RoundTripWithoutPredictors) {
  const Network original = make_model(2, /*with_predictors=*/false);
  std::stringstream buffer;
  save_network(original, buffer);
  const Network restored = load_network(buffer);
  EXPECT_FALSE(restored.has_predictor(0));
  EXPECT_EQ(restored.weight(0), original.weight(0));
}

TEST(Serialize, RestoredModelInfersIdentically) {
  const Network original = make_model(3);
  std::stringstream buffer;
  save_network(original, buffer);
  const Network restored = load_network(buffer);
  Rng rng{4};
  for (int trial = 0; trial < 10; ++trial) {
    Matrix x(1, 20);
    for (float& v : x.flat()) v = static_cast<float>(rng.uniform(0.0, 1.0));
    EXPECT_EQ(original.forward(x).output(), restored.forward(x).output());
  }
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream buffer("this is not a model");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  const Network original = make_model(5);
  std::stringstream buffer;
  save_network(original, buffer);
  const std::string full = buffer.str();
  // Cut the stream at several depths; every cut must throw, not crash
  // or return a half-initialised model.
  for (const double fraction : {0.1, 0.5, 0.9, 0.99}) {
    std::stringstream cut(
        full.substr(0, static_cast<std::size_t>(
                           static_cast<double>(full.size()) * fraction)));
    EXPECT_THROW(load_network(cut), std::runtime_error)
        << "fraction " << fraction;
  }
}

TEST(Serialize, RejectsVersionMismatch) {
  const Network original = make_model(6);
  std::stringstream buffer;
  save_network(original, buffer);
  std::string bytes = buffer.str();
  bytes[4] = 99;  // bump the version field
  std::stringstream bad(bytes);
  EXPECT_THROW(load_network(bad), std::runtime_error);
}

/// Little-endian `v` in `bytes` bytes, as save_network writes it.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

TEST(Serialize, RejectsOversizedHeadersBeforeAllocating) {
  // Headers of a {2^20, 2^20} model, whose one W would take 4 TiB.
  // Neither holds a payload byte; each must fail as a bad file, not
  // as std::bad_alloc.
  std::string header = "SPNN";
  put_le(header, kModelFormatVersion, 4);
  put_le(header, 2, 8);
  put_le(header, 1u << 20, 8);
  put_le(header, 1u << 20, 8);
  ASSERT_EQ(header.size(), 32u);
  std::string with_matrix = header;  // and the W header that matches it
  put_le(with_matrix, 1u << 20, 8);
  put_le(with_matrix, 1u << 20, 8);
  for (const std::string& bytes : {header, with_matrix}) {
    std::stringstream in(bytes);
    EXPECT_THROW(load_network(in), std::runtime_error)
        << bytes.size() << "-byte header";
  }
}

TEST(Serialize, FileRoundTrip) {
  const Network original = make_model(7);
  const std::string path = "serialize_test_model.bin";
  save_network(original, path);
  const Network restored = load_network(path);
  EXPECT_EQ(restored.weight(0), original.weight(0));
  std::remove(path.c_str());
  EXPECT_THROW(load_network(path), std::runtime_error);
}

// ---- prediction threshold ----

class ThresholdFixture : public ::testing::Test {
 protected:
  ThresholdFixture() {
    Rng rng{8};
    net_.emplace(std::vector<std::size_t>{24, 32, 4}, rng);
    net_->set_predictor(0, Predictor::random(32, 24, 4, rng));
    Matrix calib(4, 24, 0.5f);
    quantized_.emplace(*net_, calib);
    Rng xr{9};
    x_.resize(24);
    for (float& v : x_) v = static_cast<float>(xr.uniform(0.0, 1.0));
  }

  std::size_t active_rows(double theta) {
    quantized_->set_prediction_threshold(theta);
    const auto qx = quantized_->quantize_input(x_);
    const auto result = quantized_->forward_layer(0, qx, true);
    std::size_t active = 0;
    for (std::uint8_t bit : result.mask) active += bit;
    return active;
  }

  std::optional<Network> net_;
  std::optional<QuantizedNetwork> quantized_;
  Vector x_;
};

TEST_F(ThresholdFixture, ZeroThresholdIsPaperBehaviour) {
  EXPECT_EQ(quantized_->layer(0).threshold_raw(), 0);
  const std::size_t base = active_rows(0.0);
  EXPECT_GT(base, 0u);
  EXPECT_LT(base, 32u);
}

TEST_F(ThresholdFixture, ThresholdMonotonicallyKillsRows) {
  const std::size_t permissive = active_rows(-0.5);
  const std::size_t base = active_rows(0.0);
  const std::size_t strict = active_rows(0.5);
  EXPECT_GE(permissive, base);
  EXPECT_GE(base, strict);
  EXPECT_GT(permissive, strict);  // the sweep range must actually move
}

TEST_F(ThresholdFixture, SimulatorHonoursThreshold) {
  quantized_->set_prediction_threshold(0.3);
  ArchParams arch;
  arch.num_pes = 16;
  arch.router_levels = 2;
  AcceleratorSim sim(arch);
  // The internal golden cross-check inside run() fails if the PE and
  // the functional model disagree about the threshold.
  const SimResult run = sim.run(*quantized_, x_, true);
  EXPECT_EQ(run.output, quantized_->infer_raw(x_, true));
}

// ---- architecture sweeps ----

class ArchSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArchSweep, SimulatorExactAtEveryScale) {
  const std::size_t pes = GetParam();
  ArchParams arch;
  arch.num_pes = pes;
  arch.router_levels = pes == 16 ? 2 : pes == 64 ? 3 : 4;
  arch.validate();

  Rng rng{10};
  Network net{{48, 40, 8}, rng};
  net.set_predictor(0, Predictor::random(40, 48, 4, rng));
  Matrix calib(4, 48, 0.5f);
  const QuantizedNetwork q(net, calib);

  AcceleratorSim sim(arch);
  Vector x(48);
  for (float& v : x)
    v = rng.bernoulli(0.5) ? 0.0f
                           : static_cast<float>(rng.uniform(0.0, 1.0));
  for (const bool uv : {true, false})
    EXPECT_EQ(sim.run(q, x, uv).output, q.infer_raw(x, uv));
}

TEST_P(ArchSweep, MorePesNeverSlower) {
  const std::size_t pes = GetParam();
  if (pes == 16) return;  // compares against the 16-PE baseline

  Rng rng{11};
  Network net{{64, 256, 8}, rng};
  Matrix calib(4, 64, 0.5f);
  const QuantizedNetwork q(net, calib);
  Vector x(64, 0.5f);

  ArchParams small;
  small.num_pes = 16;
  small.router_levels = 2;
  ArchParams large;
  large.num_pes = pes;
  large.router_levels = pes == 64 ? 3 : 4;

  const std::uint64_t small_cycles =
      AcceleratorSim(small).run(q, x, false).total_cycles;
  const std::uint64_t large_cycles =
      AcceleratorSim(large).run(q, x, false).total_cycles;
  EXPECT_LE(large_cycles, small_cycles);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, ArchSweep,
                         ::testing::Values(16, 64, 256));

// ---- fault injection ----

TEST(FaultInjection, QueueOverflowIsDetectedNotSilent) {
  ActQueue queue(2);
  queue.push(Flit{.index = 1, .payload = 1, .source = 0});
  queue.push(Flit{.index = 2, .payload = 1, .source = 0});
  // A broken backpressure protocol would overflow; the model must trap.
  EXPECT_THROW(queue.push(Flit{.index = 3, .payload = 1, .source = 0}),
               InvariantError);
}

TEST(FaultInjection, RouterBufferOverrunTraps) {
  Router r(4, 2, 1, RouterMode::kArbitrate);
  r.push(0, Flit{.index = 1});
  r.push(0, Flit{.index = 2});
  EXPECT_THROW(r.push(0, Flit{.index = 3}), InvariantError);
}

TEST(FaultInjection, CorruptedWeightChangesSimulatorOutput) {
  // Flip one weight word after quantisation: the golden model and a
  // simulator fed the *original* image must now disagree — evidence the
  // bit-exact cross-check has teeth.
  Rng rng{12};
  Network net{{16, 12, 4}, rng};
  Matrix calib(2, 16, 0.5f);
  QuantizedNetwork good(net, calib);

  Network tampered = net;
  // Large positive corruption: pushes hidden unit 3 firmly through the
  // ReLU so the fault is observable at the output regardless of sign.
  tampered.weight(0)(3, 5) += 10.0f;
  QuantizedNetwork bad(tampered, calib);

  Vector x(16, 0.9f);
  const auto qx_good = good.quantize_input(x);
  const auto layer_good = good.forward_layer(0, qx_good, false);
  const auto qx_bad = bad.quantize_input(x);
  const auto layer_bad = bad.forward_layer(0, qx_bad, false);
  EXPECT_NE(layer_good.activations, layer_bad.activations);
}

TEST(FaultInjection, OversizedLayerRejectedBeforeSimulation) {
  // A 5000-wide layer exceeds 64×64 activation registers.
  ArchParams arch;  // paper scale
  Rng rng{13};
  Network net{{8, 8, 4}, rng};
  Matrix calib(2, 8, 0.5f);
  QuantizedNetwork q(net, calib);
  AcceleratorSim sim(arch);
  // Wrong input size must trip the precondition, not corrupt state.
  EXPECT_THROW(sim.run(q, Vector(9, 0.5f), false),
               std::invalid_argument);
}

}  // namespace
}  // namespace sparsenn
