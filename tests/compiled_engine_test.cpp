// Tests for src/sim/compiled_network + the compiled engine path of
// AcceleratorSim/BatchRunner: compiling a network once and running many
// inferences from the shared read-only image must be a pure
// optimisation — SimResult cycles, activations and every EventCounts
// field bit-identical to a freshly-constructed per-inference run,
// across predictor modes, validation modes and thread counts. An image
// owns the network version it was compiled from, so nothing the caller
// does to its own object afterwards changes what the image runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/model_zoo.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/result_arena.hpp"
#include "sim/schedule.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::seeded_network;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;

/// The words of a view in row-major order.
std::vector<std::int16_t> row_major_words(const WordView& w) {
  std::vector<std::int16_t> words;
  for (std::size_t r = 0; r < w.rows; ++r)
    for (std::size_t c = 0; c < w.cols; ++c) words.push_back(w.at(r, c));
  return words;
}

/// Seed-engine reference: a brand-new simulator per inference, the
/// one-shot (recompile + full validation) entry point.
SimResult fresh_run(const QuantizedNetwork& network,
                    std::span<const float> input, bool use_predictor) {
  AcceleratorSim sim(tiny_arch());
  return sim.run(network, input, use_predictor);
}

TEST(CompiledNetwork, SlicesMatchFreshlyBuiltOnes) {
  Rng rng{3};
  const QuantizedNetwork q = seeded_network(rng);
  const ArchParams arch = tiny_arch();

  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(q, arch, uv_on);
    ASSERT_EQ(compiled.num_layers(), q.num_layers());
    for (std::size_t l = 0; l < q.num_layers(); ++l) {
      for (std::size_t pe = 0; pe < arch.num_pes; ++pe) {
        const PeLayerSlice fresh =
            make_pe_slice(q.layer(l), arch, pe, uv_on);
        const PeLayerSlice& got = compiled.slice(l, pe);
        EXPECT_EQ(got.layer_input_dim, fresh.layer_input_dim);
        EXPECT_EQ(got.layer_output_dim, fresh.layer_output_dim);
        EXPECT_EQ(got.rank, fresh.rank);
        EXPECT_EQ(got.has_predictor, fresh.has_predictor);
        EXPECT_EQ(got.is_output, fresh.is_output);
        EXPECT_EQ(got.predictor_threshold_raw,
                  fresh.predictor_threshold_raw);
        EXPECT_EQ(row_major_words(got.w_view),
                  row_major_words(fresh.w_view))
            << "layer " << l << " pe " << pe;
        EXPECT_EQ(row_major_words(got.u_view),
                  row_major_words(fresh.u_view))
            << "layer " << l << " pe " << pe;
        EXPECT_EQ(row_major_words(got.v_view),
                  row_major_words(fresh.v_view))
            << "layer " << l << " pe " << pe;
      }
    }
  }
}

/// FNV-1a over 64-bit values: a compact fingerprint of a deployment.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void add_words(std::span<const T> words) {
    add(words.size());
    for (const T w : words) add(static_cast<std::uint64_t>(w));
  }
  void add_tensor(const QuantizedTensor& t) {
    add(t.rows);
    add(t.cols);
    add(static_cast<std::uint64_t>(t.fmt.frac_bits));
    add_words(std::span<const std::int16_t>(t.data));
  }
  /// A view folded like add_words over its row-major words.
  void add_view(const WordView& w) {
    const std::vector<std::int16_t> words = row_major_words(w);
    add_words(std::span<const std::int16_t>(words));
  }
  /// A row-major tensor folded like add_tensor, read from its
  /// column-major mirror `t` (the transposed tensor): the same sizes,
  /// format and word order.
  void add_transposed(const QuantizedTensor& t) {
    add(t.cols);
    add(t.rows);
    add(static_cast<std::uint64_t>(t.fmt.frac_bits));
    add_view(WordView{t.data.data(), t.cols, t.rows, 1, t.cols});
  }
};

/// Deployment pin: every QuantizedLayer word and format and every
/// CompiledNetwork slice of two seeded nets, folded into two digests
/// whose values were recorded before quantisation and compilation were
/// vectorised, when each slice still copied its row map and U/V words:
/// a slice folds its global rows p + r·P, then its W, U and V views'
/// row-major words, in that order. The second net's odd sizes put a
/// remainder on every vector tail (quantise, matvec row blocks) and
/// leave PEs without rows.
TEST(CompiledNetwork, DeploymentIsBitIdenticalToPinnedDigest) {
  std::vector<QuantizedNetwork> nets;
  {
    Rng rng{2018};
    nets.push_back(seeded_network(rng));
  }
  {
    Rng rng{12};
    Network net{{37, 29, 23, 7}, rng};
    net.set_predictor(0, Predictor::random(29, 37, 5, rng));
    net.set_predictor(1, Predictor::random(23, 29, 5, rng));
    Matrix calib(9, 37);
    for (float& v : calib.flat())
      v = rng.bernoulli(0.3) ? 0.0f
                             : static_cast<float>(rng.normal(0.0, 2.0));
    nets.emplace_back(net, calib);
  }

  Digest quantized;
  Digest compiled;
  for (const QuantizedNetwork& q : nets) {
    for (std::size_t l = 0; l < q.num_layers(); ++l) {
      const QuantizedLayer& layer = q.layer(l);
      quantized.add_transposed(layer.w_t);  // W, row-major
      quantized.add_tensor(layer.w_t);
      // U, V, u_t and v_t in that order; V's words fold row-major.
      quantized.add(layer.u.has_value());
      if (layer.u) quantized.add_tensor(*layer.u);
      quantized.add(layer.v_t.has_value());
      if (layer.v_t) quantized.add_transposed(*layer.v_t);
      for (const auto* t : {&layer.u_t, &layer.v_t}) {
        quantized.add(t->has_value());
        if (t->has_value()) quantized.add_tensor(**t);
      }
      for (const FixedPointFormat fmt :
           {layer.in_fmt, layer.out_fmt, layer.mid_fmt})
        quantized.add(static_cast<std::uint64_t>(fmt.frac_bits));
      quantized.add(layer.is_output);
      quantized.add(static_cast<std::uint64_t>(layer.threshold_raw()));
    }

    for (const ArchParams& arch : {tiny_arch(), ArchParams::paper()}) {
      for (const bool uv_on : {false, true}) {
        const CompiledNetwork image(q, arch, uv_on);
        compiled.add(image.max_broadcast_flits());
        // Weight words the slices view (W + U + V): the pinned digest
        // folds this count here.
        std::size_t slice_words = 0;
        for (std::size_t l = 0; l < image.num_layers(); ++l) {
          for (std::size_t pe = 0; pe < image.num_pes(); ++pe) {
            const PeLayerSlice& s = image.slice(l, pe);
            slice_words +=
                s.w_view.size() + s.u_view.size() + s.v_view.size();
          }
        }
        compiled.add(slice_words);
        for (std::size_t l = 0; l < image.num_layers(); ++l) {
          for (std::size_t pe = 0; pe < image.num_pes(); ++pe) {
            const PeLayerSlice& s = image.slice(l, pe);
            for (const std::size_t v :
                 {s.layer_input_dim, s.layer_output_dim, s.rank})
              compiled.add(v);
            compiled.add(s.has_predictor);
            compiled.add(s.is_output);
            std::vector<std::uint32_t> global_rows;
            for (std::size_t r = 0; r < s.w_view.rows; ++r)
              global_rows.push_back(
                  static_cast<std::uint32_t>(pe + r * image.num_pes()));
            compiled.add_words(std::span<const std::uint32_t>(global_rows));
            compiled.add_view(s.w_view);
            compiled.add_view(s.u_view);
            compiled.add_view(s.v_view);
            for (const int frac : {s.in_frac, s.out_frac, s.mid_frac,
                                   s.w_frac, s.u_frac, s.v_frac})
              compiled.add(static_cast<std::uint64_t>(frac));
            compiled.add(
                static_cast<std::uint64_t>(s.predictor_threshold_raw));
          }
        }
      }
    }
  }
  EXPECT_EQ(quantized.h, 0x7118ca69c1803973ull);
  EXPECT_EQ(compiled.h, 0xc376cca52b85b903ull);
}

/// True when every word of `v` lies inside `buffer`.
bool lies_inside(const WordView& v, const std::vector<std::int16_t>& buffer) {
  if (v.size() == 0) return true;
  const std::less<const std::int16_t*> before;
  const std::int16_t* begin = buffer.data();
  const std::int16_t* end = begin + buffer.size();
  const std::int16_t* last =
      v.base + (v.rows - 1) * v.row_stride + (v.cols - 1) * v.col_stride;
  return !before(v.base, begin) && before(last, end);
}

/// Zero-copy pin: every PE's W, U and V slice is a view into its
/// layer's own w_t, u and v_t buffer — compiling copies no weight word,
/// on a PE array with a few rows per PE and on one where most PEs hold
/// none — and make_pe_slice builds the same views. W and U hold the
/// rows p + r·P and V the columns p + s·P of PE p; the words they read
/// are the ones the digest above pins.
TEST(CompiledNetwork, SliceViewsLieInsideTheLayersOwnBuffers) {
  Rng rng{4};
  const QuantizedNetwork q = seeded_network(rng);
  for (const ArchParams& arch : {tiny_arch(), ArchParams::paper()}) {
    const std::size_t num_pes = arch.num_pes;
    for (const bool uv_on : {false, true}) {
      const CompiledNetwork image(q, arch, uv_on);
      for (std::size_t l = 0; l < image.num_layers(); ++l) {
        const QuantizedLayer& layer = q.layer(l);
        const std::size_t m = layer.out_dim();
        for (std::size_t pe = 0; pe < num_pes; ++pe) {
          const PeLayerSlice& s = image.slice(l, pe);
          const WordView& w = s.w_view;
          // The view holds exactly the rows ≡ pe (mod P).
          ASSERT_EQ(w.rows, pe < m ? (m - pe + num_pes - 1) / num_pes : 0);
          ASSERT_EQ(w.cols, layer.in_dim());

          const PeLayerSlice fresh = make_pe_slice(layer, arch, pe, uv_on);
          for (const auto& [got, want] :
               {std::pair{w, fresh.w_view}, std::pair{s.u_view, fresh.u_view},
                std::pair{s.v_view, fresh.v_view}}) {
            EXPECT_EQ(want.base, got.base) << "layer " << l << " pe " << pe;
            EXPECT_EQ(want.rows, got.rows);
            EXPECT_EQ(want.cols, got.cols);
            EXPECT_EQ(want.row_stride, got.row_stride);
            EXPECT_EQ(want.col_stride, got.col_stride);
          }

          EXPECT_TRUE(lies_inside(w, layer.w_t.data))
              << "layer " << l << " pe " << pe;
          for (std::size_t r = 0; r < w.rows; ++r)
            for (std::size_t c = 0; c < w.cols; ++c)
              ASSERT_EQ(w.at(r, c), layer.w_t.at(c, pe + r * num_pes))
                  << "layer " << l << " pe " << pe << " row " << r;

          if (!s.has_predictor) {
            EXPECT_EQ(s.u_view.size(), 0u) << "layer " << l << " pe " << pe;
            EXPECT_EQ(s.v_view.size(), 0u) << "layer " << l << " pe " << pe;
            continue;
          }
          const QuantizedTensor& u = *layer.u;
          const QuantizedTensor& v_t = *layer.v_t;
          ASSERT_EQ(s.u_view.rows, w.rows);
          ASSERT_EQ(s.u_view.cols, s.rank);
          EXPECT_TRUE(lies_inside(s.u_view, u.data))
              << "layer " << l << " pe " << pe;
          for (std::size_t r = 0; r < s.u_view.rows; ++r)
            for (std::size_t k = 0; k < s.rank; ++k)
              ASSERT_EQ(s.u_view.at(r, k), u.at(pe + r * num_pes, k))
                  << "layer " << l << " pe " << pe << " U row " << r;

          const std::size_t n = layer.in_dim();
          ASSERT_EQ(s.v_view.rows,
                    pe < n ? (n - pe + num_pes - 1) / num_pes : 0);
          ASSERT_EQ(s.v_view.cols, s.rank);
          EXPECT_TRUE(lies_inside(s.v_view, layer.v_t->data))
              << "layer " << l << " pe " << pe;
          for (std::size_t slot = 0; slot < s.v_view.rows; ++slot)
            for (std::size_t k = 0; k < s.rank; ++k)
              ASSERT_EQ(s.v_view.at(slot, k), v_t.at(pe + slot * num_pes, k))
                  << "layer " << l << " pe " << pe << " V slot " << slot;
        }
      }
    }
  }
}

/// Compiled engine vs the per-inference engine, both uv modes, both
/// validation modes — every SimResult field must be bit-identical
/// (operator== covers cycles, activations, NocStats and EventCounts).
class CompiledEngineExactness : public ::testing::TestWithParam<bool> {};

TEST_P(CompiledEngineExactness, BitIdenticalToFreshPerInferenceRuns) {
  const bool uv_on = GetParam();
  const Fixture f = make_batch_fixture(6, /*seed=*/21);
  const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);

  AcceleratorSim sim(tiny_arch());  // one reused simulator
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    const SimResult expected =
        fresh_run(f.network, f.data.image(i), uv_on);
    const SimResult validated =
        sim.run(compiled, f.data.image(i), ValidationMode::kFull);
    const SimResult unvalidated =
        sim.run(compiled, f.data.image(i), ValidationMode::kOff);
    EXPECT_EQ(validated, expected) << "input " << i << " (kFull)";
    EXPECT_EQ(unvalidated, expected) << "input " << i << " (kOff)";
  }
}

INSTANTIATE_TEST_SUITE_P(UvModes, CompiledEngineExactness,
                         ::testing::Values(true, false));

/// Event-driven cycle advancement vs pure per-cycle ticking: every
/// SimResult field — cycle counts, event counters, NoC statistics
/// (conflicts, credit stalls, occupancy sums), activations — must be
/// bit-identical. Runs both uv modes and several queue depths so the
/// V bursts, the lazily settled reduction and arbitration routers and
/// the W phase's stalled and draining queues all occur with different
/// frequencies.
class SteppingEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(SteppingEquivalence, BitIdenticalToPerCycleEngine) {
  const bool uv_on = GetParam();
  const Fixture f = make_batch_fixture(8, /*seed=*/57);
  for (const std::size_t queue_depth : {2u, 8u, 32u}) {
    ArchParams arch = tiny_arch();
    arch.act_queue_depth = queue_depth;
    const CompiledNetwork compiled(f.network, arch, uv_on);

    AcceleratorSim event(arch);
    event.set_stepping_mode(SteppingMode::kEvent);
    AcceleratorSim per_cycle(arch);
    per_cycle.set_stepping_mode(SteppingMode::kPerCycle);
    ASSERT_EQ(event.stepping_mode(), SteppingMode::kEvent);
    ASSERT_EQ(per_cycle.stepping_mode(), SteppingMode::kPerCycle);

    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const SimResult expected =
          per_cycle.run(compiled, f.data.image(i), ValidationMode::kOff);
      const SimResult evented =
          event.run(compiled, f.data.image(i), ValidationMode::kOff);
      EXPECT_EQ(evented, expected)
          << "event input " << i << " uv " << uv_on << " depth "
          << queue_depth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UvModes, SteppingEquivalence,
                         ::testing::Values(true, false));

/// One CompiledNetwork shared read-only across BatchRunner workers:
/// per-input results identical to fresh per-inference runs for every
/// thread count.
class CompiledBatchThreads : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(CompiledBatchThreads, SharedAcrossWorkersMatchesFreshRuns) {
  const Fixture f = make_batch_fixture(12, /*seed=*/33);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);

    BatchOptions options;
    options.num_threads = GetParam();
    options.use_predictor = uv_on;
    const BatchRunner runner(tiny_arch(), options);
    // The same image is shared by all workers of this run (and can be
    // reused across runs).
    const BatchResult batched = runner.run(compiled, f.data);

    ASSERT_EQ(batched.results.size(), f.data.size());
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      EXPECT_EQ(batched.results[i],
                fresh_run(f.network, f.data.image(i), uv_on))
          << "input " << i << " uv " << uv_on << " threads " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CompiledBatchThreads,
                         ::testing::Values(1, 2, 8));

TEST(CompiledEngine, MismatchedArchitectureIsRejected) {
  Rng rng{5};
  const QuantizedNetwork q = seeded_network(rng);
  ArchParams other = tiny_arch();
  other.num_pes = 4;
  other.router_levels = 1;
  const CompiledNetwork compiled(q, other, true);

  AcceleratorSim sim(tiny_arch());
  const Vector x(24, 0.5f);
  EXPECT_THROW((void)sim.run(compiled, x), std::invalid_argument);
}

TEST(CompiledEngine, ImageKeepsItsVersionAcrossAThresholdChange) {
  // A threshold change gives the caller's object a new version. An
  // image compiled before it keeps running the version it was compiled
  // from, in every validation mode and through BatchRunner.
  const Fixture f = make_batch_fixture(6, /*seed=*/9);
  QuantizedNetwork q = f.network;
  const CompiledNetwork compiled(q, tiny_arch(), true);
  std::vector<SimResult> before;
  for (std::size_t i = 0; i < f.data.size(); ++i)
    before.push_back(fresh_run(q, f.data.image(i), true));

  q.set_prediction_threshold(0.35);  // after compiling
  EXPECT_FALSE(compiled.network().same_version(q));

  AcceleratorSim sim(tiny_arch());
  bool threshold_matters = false;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    for (const ValidationMode mode :
         {ValidationMode::kOff, ValidationMode::kFull}) {
      EXPECT_EQ(sim.run(compiled, f.data.image(i), mode), before[i])
          << "input " << i;
    }
    threshold_matters = threshold_matters ||
                        fresh_run(q, f.data.image(i), true) != before[i];
  }
  // The check is vacuous unless the new threshold changes some run.
  EXPECT_TRUE(threshold_matters);

  BatchOptions options;
  options.num_threads = 2;
  const BatchResult batched =
      BatchRunner(tiny_arch(), options).run(compiled, f.data);
  ASSERT_EQ(batched.results.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(batched.results[i], before[i]) << "input " << i;
}

/// What happens to an image's source object after compiling.
enum class SourceFate { kDestroyed, kCopiedOver, kMovedOver };

/// An image's W, U and V views point into its network's layers, so the
/// image must own them: whatever happens to the caller's object, every
/// run entry point reproduces a fresh compile of the original bit for
/// bit. The sanitizer jobs report any read of freed words.
class SourceReleased : public ::testing::TestWithParam<SourceFate> {};

TEST_P(SourceReleased, ImageRunsTheVersionItWasCompiledFrom) {
  for (const bool uv_on : {true, false}) {
    // The source is the only holder of its layers once the fixture's
    // copy goes out of scope.
    std::unique_ptr<QuantizedNetwork> source;
    Dataset data;
    {
      Fixture f = make_batch_fixture(4, /*seed=*/71);
      source = std::make_unique<QuantizedNetwork>(f.network);
      data = std::move(f.data);
    }
    const CompiledNetwork image(*source, tiny_arch(), uv_on);
    ResultArena arena(image);

    // Reference runs on fresh compiles of the original, taken before
    // it goes.
    AnalyticEngine analytic(tiny_arch());
    std::vector<SimResult> cycle_ref;
    std::vector<SimResult> analytic_ref;
    for (std::size_t i = 0; i < data.size(); ++i) {
      cycle_ref.push_back(fresh_run(*source, data.image(i), uv_on));
      analytic_ref.push_back(analytic.run(
          CompiledNetwork(*source, tiny_arch(), uv_on), data.image(i)));
    }

    // Wider layers than the fixture's, so an assignment would free
    // every W buffer the image views if the image did not hold them.
    Rng rng{72};
    Network wider{{24, 40, 30, 6}, rng};
    wider.set_predictor(0, Predictor::random(40, 24, 4, rng));
    wider.set_predictor(1, Predictor::random(30, 40, 4, rng));
    QuantizedNetwork other(wider, data.inputs);
    switch (GetParam()) {
      case SourceFate::kDestroyed:
        source.reset();
        break;
      case SourceFate::kCopiedOver:
        *source = other;
        break;
      case SourceFate::kMovedOver:
        *source = std::move(other);
        break;
    }

    AcceleratorSim sim(tiny_arch());
    for (const ValidationMode mode :
         {ValidationMode::kOff, ValidationMode::kFull}) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        const std::span<const float> x = data.image(i);
        EXPECT_EQ(sim.run(image, x, mode), cycle_ref[i]) << "input " << i;
        EXPECT_EQ(sim.run(image, x, arena, mode), cycle_ref[i])
            << "input " << i;
        EXPECT_EQ(analytic.run(image, x, mode), analytic_ref[i])
            << "input " << i;
        EXPECT_EQ(analytic.run(image, x, arena, mode), analytic_ref[i])
            << "input " << i;
      }
    }
    // Two workers share the image after the caller's network is gone.
    BatchOptions options;
    options.num_threads = 2;
    options.use_predictor = uv_on;
    const BatchResult batched =
        BatchRunner(tiny_arch(), options).run(image, data);
    ASSERT_EQ(batched.results.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
      EXPECT_EQ(batched.results[i], cycle_ref[i]) << "input " << i;
  }
}

std::string fate_name(const ::testing::TestParamInfo<SourceFate>& info) {
  switch (info.param) {
    case SourceFate::kDestroyed:
      return "Destroyed";
    case SourceFate::kCopiedOver:
      return "CopiedOver";
    case SourceFate::kMovedOver:
      return "MovedOver";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Fates, SourceReleased,
                         ::testing::Values(SourceFate::kDestroyed,
                                           SourceFate::kCopiedOver,
                                           SourceFate::kMovedOver),
                         fate_name);

/// A copy of an image shares the layer list its views point into, so
/// it runs whole after the original image and the caller's network are
/// gone. The sanitizer jobs report any read of freed words.
TEST(CompiledEngine, CopiedImageOutlivesItsOriginal) {
  for (const bool uv_on : {true, false}) {
    std::optional<CompiledNetwork> copy;
    std::vector<SimResult> expected;
    Dataset data;
    {
      Fixture f = make_batch_fixture(3, /*seed=*/83);
      const CompiledNetwork original(f.network, tiny_arch(), uv_on);
      copy.emplace(original);
      for (std::size_t i = 0; i < f.data.size(); ++i)
        expected.push_back(fresh_run(f.network, f.data.image(i), uv_on));
      data = std::move(f.data);
    }
    AcceleratorSim sim(tiny_arch());
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(sim.run(*copy, data.image(i), ValidationMode::kFull),
                expected[i])
          << "input " << i << " uv " << uv_on;
    }
  }
}

TEST(CompiledEngine, CopiesShareAVersionUntilOneChangesItsThreshold) {
  Rng rng{15};
  QuantizedNetwork a = seeded_network(rng);
  QuantizedNetwork b = a;
  EXPECT_TRUE(a.same_version(b));
  EXPECT_EQ(&a.layer(0), &b.layer(0));  // one layer list, not two

  a.set_prediction_threshold(0.2);  // a new version for `a` only
  EXPECT_FALSE(a.same_version(b));
  EXPECT_EQ(a.layer(0).prediction_threshold, 0.2);
  EXPECT_EQ(b.layer(0).prediction_threshold, 0.0);
  EXPECT_EQ(a.layer(0).w_t.data, b.layer(0).w_t.data);

  const QuantizedNetwork before = a;
  a.set_prediction_threshold(0.2);  // the same value still makes one
  EXPECT_FALSE(a.same_version(before));

  b = a;  // copy assignment shares the version too
  EXPECT_TRUE(b.same_version(a));
}

TEST(CompiledEngine, MovedFromNetworkStaysWhole) {
  // QuantizedNetwork declares only copy operations, so a move copies
  // the layer reference: the moved-from object keeps its version and
  // still compiles and runs.
  Rng rng{39};
  QuantizedNetwork a = seeded_network(rng);
  const QuantizedNetwork original = a;
  QuantizedNetwork b = std::move(a);
  QuantizedNetwork c = seeded_network(rng);
  c = std::move(b);
  EXPECT_TRUE(c.same_version(original));
  // NOLINTBEGIN(bugprone-use-after-move): reading the moved-from
  // objects is the point of this test.
  for (const QuantizedNetwork* moved_from : {&a, &b}) {
    EXPECT_TRUE(moved_from->same_version(original));
    EXPECT_EQ(moved_from->num_layers(), original.num_layers());
  }
  const Vector x(24, 0.5f);
  EXPECT_EQ(fresh_run(a, x, true), fresh_run(original, x, true));
  // NOLINTEND(bugprone-use-after-move)
}

TEST(ModelZooCache, ReusesImagesUntilTheThresholdChanges) {
  Rng rng{27};
  QuantizedNetwork q = seeded_network(rng);
  ModelZoo cache;
  EXPECT_EQ(cache.compile_count(), 0u);

  const std::shared_ptr<const CompiledNetwork> on =
      cache.get(q, tiny_arch(), true);
  const std::shared_ptr<const CompiledNetwork> off =
      cache.get(q, tiny_arch(), false);
  EXPECT_EQ(cache.compile_count(), 2u);
  EXPECT_TRUE(on->use_predictor());
  EXPECT_FALSE(off->use_predictor());

  // Hits: the same version and uv mode → the same image, also for a
  // copy of the network.
  const QuantizedNetwork old = q;
  EXPECT_EQ(cache.get(q, tiny_arch(), true), on);
  EXPECT_EQ(cache.get(old, tiny_arch(), false), off);
  EXPECT_EQ(cache.compile_count(), 2u);

  // A threshold change makes a new version: the next get() compiles
  // an image that carries the new threshold.
  q.set_prediction_threshold(0.25);
  const std::shared_ptr<const CompiledNetwork> on2 =
      cache.get(q, tiny_arch(), true);
  EXPECT_EQ(cache.compile_count(), 3u);
  EXPECT_TRUE(on2->network().same_version(q));
  EXPECT_EQ(on2->network().layer(0).prediction_threshold, 0.25);

  // The old version's images stay valid and cached until evicted or
  // invalidated.
  EXPECT_EQ(on->network().layer(0).prediction_threshold, 0.0);
  EXPECT_EQ(cache.get(old, tiny_arch(), true), on);
  EXPECT_EQ(cache.invalidate(old), 2u);
  EXPECT_FALSE(cache.contains(old, tiny_arch(), true));
  EXPECT_TRUE(cache.contains(q, tiny_arch(), true));

  cache.invalidate();
  (void)cache.get(q, tiny_arch(), true);
  EXPECT_EQ(cache.compile_count(), 4u);
}

TEST(ModelZooCache, AddressReuseNeverServesTheOldNetworksImage) {
  // Regression guard for the cache key: System::prepare() re-emplaces
  // its QuantizedNetwork into the same std::optional slot, so a new
  // network can occupy a dead network's address. The key is the
  // network version, which every image keeps alive, so the zoo must
  // recompile.
  Rng rng{35};
  ModelZoo cache;
  std::optional<QuantizedNetwork> slot(seeded_network(rng));
  const std::shared_ptr<const CompiledNetwork> first =
      cache.get(*slot, tiny_arch(), true);
  EXPECT_EQ(cache.compile_count(), 1u);

  slot.emplace(seeded_network(rng));  // same address, different weights
  const std::shared_ptr<const CompiledNetwork> recompiled =
      cache.get(*slot, tiny_arch(), true);
  EXPECT_EQ(cache.compile_count(), 2u);
  EXPECT_TRUE(recompiled->network().same_version(*slot));
  EXPECT_FALSE(first->network().same_version(*slot));
}

TEST(ModelZooCache, CachedRunsBitIdenticalToUncached) {
  const Fixture f = make_batch_fixture(5, /*seed=*/51);
  ModelZoo cache;
  AcceleratorSim sim(tiny_arch());
  for (const bool uv_on : {true, false}) {
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const SimResult cached = sim.run(
          *cache.get(f.network, tiny_arch(), uv_on), f.data.image(i));
      EXPECT_EQ(cached, fresh_run(f.network, f.data.image(i), uv_on))
          << "input " << i << " uv " << uv_on;
    }
  }
  EXPECT_EQ(cache.compile_count(), 2u);  // one compile per uv mode
}

TEST(CompiledEngine, UvOffValidatesAgainstUvOffGoldenPath) {
  // Regression guard for the golden cross-check's uv mode: a uv_off
  // image must be validated against the uv_off (EIE-style, all rows
  // computed) functional model, not the uv_on one. Pick an input where
  // the two modes produce different outputs — if kFull compared
  // against the wrong mode, it would throw here.
  Rng rng{63};
  const QuantizedNetwork q = seeded_network(rng);
  const CompiledNetwork compiled_off(q, tiny_arch(), false);
  AcceleratorSim sim(tiny_arch());

  bool saw_divergent_modes = false;
  for (int trial = 0; trial < 32; ++trial) {
    Vector x(24);
    for (float& v : x)
      v = rng.bernoulli(0.4) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));
    const auto golden_off = q.infer_raw(x, /*use_predictor=*/false);
    saw_divergent_modes = saw_divergent_modes ||
                          golden_off != q.infer_raw(x, true);
    SimResult run;
    ASSERT_NO_THROW(run = sim.run(compiled_off, x, ValidationMode::kFull))
        << "trial " << trial;
    EXPECT_EQ(run.output, golden_off) << "trial " << trial;
  }
  // The guard is vacuous if uv_on and uv_off agree on every input.
  EXPECT_TRUE(saw_divergent_modes);
}

}  // namespace
}  // namespace sparsenn
