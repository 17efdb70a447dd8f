// Tests for src/sim/batch_runner: the multi-threaded batched-inference
// driver must be a pure parallelisation — per-input results bitwise
// identical to a sequential AcceleratorSim::run(), identical across
// thread counts, with exact EventCounts aggregation.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sim/accelerator.hpp"
#include "sim/batch_runner.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;

BatchResult run_batch(const Fixture& f, std::size_t threads,
                      bool use_predictor = true) {
  BatchOptions options;
  options.num_threads = threads;
  options.use_predictor = use_predictor;
  const BatchRunner runner(tiny_arch(), options);
  return runner.run(f.network, f.data);
}

TEST(BatchRunner, MatchesSequentialRunPerInput) {
  const Fixture f = make_batch_fixture(12, /*seed=*/3);
  const BatchResult batched = run_batch(f, /*threads=*/4);
  ASSERT_EQ(batched.results.size(), 12u);

  AcceleratorSim sequential(tiny_arch());
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    const SimResult expected =
        sequential.run(f.network, f.data.image(i), /*use_predictor=*/true);
    EXPECT_EQ(batched.results[i], expected) << "input " << i;
  }
}

class BatchThreadCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchThreadCounts, IdenticalAcrossThreadCounts) {
  const Fixture f = make_batch_fixture(16, /*seed=*/7);
  const BatchResult reference = run_batch(f, /*threads=*/1);
  const BatchResult parallel = run_batch(f, GetParam());

  ASSERT_EQ(parallel.results.size(), reference.results.size());
  for (std::size_t i = 0; i < reference.results.size(); ++i)
    EXPECT_EQ(parallel.results[i], reference.results[i]) << "input " << i;
  EXPECT_EQ(parallel.total_cycles, reference.total_cycles);
  EXPECT_EQ(parallel.total_events, reference.total_events);
  EXPECT_EQ(parallel.error_rate_percent, reference.error_rate_percent);
  ASSERT_EQ(parallel.layers.size(), reference.layers.size());
  for (std::size_t l = 0; l < reference.layers.size(); ++l) {
    EXPECT_EQ(parallel.layers[l].total_cycles,
              reference.layers[l].total_cycles);
    EXPECT_EQ(parallel.layers[l].events, reference.layers[l].events);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchThreadCounts,
                         ::testing::Values(1, 2, 8));

TEST(BatchRunner, EventAggregationIsExact) {
  const Fixture f = make_batch_fixture(10, /*seed=*/11);
  const BatchResult batched = run_batch(f, /*threads=*/2);

  // Recompute every aggregate from the per-input results by hand.
  EventCounts expected_total;
  std::uint64_t expected_cycles = 0;
  std::vector<EventCounts> expected_layers(batched.layers.size());
  for (const SimResult& r : batched.results) {
    expected_cycles += r.total_cycles;
    for (std::size_t l = 0; l < r.layers.size(); ++l) {
      expected_total += r.layers[l].events;
      expected_layers[l] += r.layers[l].events;
    }
  }
  EXPECT_EQ(batched.total_cycles, expected_cycles);
  EXPECT_EQ(batched.total_events, expected_total);
  for (std::size_t l = 0; l < batched.layers.size(); ++l)
    EXPECT_EQ(batched.layers[l].events, expected_layers[l]);
}

TEST(BatchRunner, RespectsMaxSamplesAndKeepResults) {
  const Fixture f = make_batch_fixture(9, /*seed=*/13);
  BatchOptions options;
  options.num_threads = 2;
  options.max_samples = 5;
  options.keep_results = false;
  const BatchRunner runner(tiny_arch(), options);
  const BatchResult result = runner.run(f.network, f.data);
  EXPECT_EQ(result.num_inferences, 5u);
  EXPECT_TRUE(result.results.empty());
  EXPECT_GT(result.total_cycles, 0u);
  EXPECT_GE(result.error_rate_percent, 0.0);
}

TEST(BatchRunner, MoreThreadsThanInputs) {
  const Fixture f = make_batch_fixture(3, /*seed=*/17);
  const BatchResult result = run_batch(f, /*threads=*/8);
  EXPECT_EQ(result.num_threads, 3u);  // clamped to the batch size
  EXPECT_EQ(result.results.size(), 3u);
}

TEST(BatchRunner, MaxSamplesLargerThanDatasetClamps) {
  // Asking for more samples than exist must clamp to the dataset size,
  // never index past it — and the clamped run must be bit-identical to
  // simply running the whole dataset.
  const Fixture f = make_batch_fixture(6, /*seed=*/43);
  BatchOptions options;
  options.num_threads = 2;
  options.max_samples = 100;  // dataset has 6
  const BatchResult clamped =
      BatchRunner(tiny_arch(), options).run(f.network, f.data);
  EXPECT_EQ(clamped.num_inferences, 6u);
  ASSERT_EQ(clamped.results.size(), 6u);

  const BatchResult whole = run_batch(f, /*threads=*/2);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(clamped.results[i], whole.results[i]) << "input " << i;
  EXPECT_EQ(clamped.total_cycles, whole.total_cycles);
  EXPECT_EQ(clamped.error_rate_percent, whole.error_rate_percent);
}

TEST(BatchRunner, OversizedThreadsAndSamplesTogetherClamp) {
  // Both edges at once, on the aggregate-only (arena) path: threads
  // clamp to the clamped sample count, not to the requested one.
  const Fixture f = make_batch_fixture(2, /*seed=*/47);
  BatchOptions options;
  options.num_threads = 16;
  options.max_samples = 50;
  options.keep_results = false;
  const BatchResult result =
      BatchRunner(tiny_arch(), options).run(f.network, f.data);
  EXPECT_EQ(result.num_inferences, 2u);
  EXPECT_EQ(result.num_threads, 2u);
  EXPECT_TRUE(result.results.empty());
  EXPECT_GT(result.total_cycles, 0u);
}

TEST(BatchRunner, UvOffBaselineAlsoDeterministic) {
  const Fixture f = make_batch_fixture(8, /*seed=*/19);
  const BatchResult a = run_batch(f, 1, /*use_predictor=*/false);
  const BatchResult b = run_batch(f, 8, /*use_predictor=*/false);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i], b.results[i]);
}

TEST(BatchRunner, AggregateOnlyModeMatchesKeepResults) {
  // keep_results=false folds inferences into per-worker accumulators
  // instead of retaining SimResults; every aggregate must still match
  // the post-join input-order merge exactly.
  const Fixture f = make_batch_fixture(14, /*seed=*/37);
  BatchOptions keep;
  keep.num_threads = 3;
  BatchOptions fold = keep;
  fold.keep_results = false;
  const BatchResult a = BatchRunner(tiny_arch(), keep).run(f.network, f.data);
  const BatchResult b = BatchRunner(tiny_arch(), fold).run(f.network, f.data);

  EXPECT_EQ(b.total_cycles, a.total_cycles);
  EXPECT_EQ(b.total_events, a.total_events);
  EXPECT_EQ(b.error_rate_percent, a.error_rate_percent);
  ASSERT_EQ(b.layers.size(), a.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(b.layers[l].total_cycles, a.layers[l].total_cycles);
    EXPECT_EQ(b.layers[l].events, a.layers[l].events);
  }
  EXPECT_TRUE(b.results.empty());
}

TEST(BatchRunner, FirstInferenceValidationIsPerBatchNotPerWorker) {
  // A batch validates exactly ONE inference — the documented contract
  // — not one per worker thread. With 8 workers a per-worker flag
  // would report 8 here.
  const Fixture f = make_batch_fixture(16, /*seed=*/21);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    BatchOptions options;
    options.num_threads = threads;
    const BatchRunner runner(tiny_arch(), options);
    const BatchResult result = runner.run(f.network, f.data);
    EXPECT_EQ(result.validated_inferences, 1u) << threads << " threads";
  }
}

TEST(BatchRunner, UnlabeledDatasetRunsWithoutErrorRate) {
  Fixture f = make_batch_fixture(6, /*seed=*/29);
  f.data.labels.clear();  // inputs only — still simulable
  const BatchResult result = run_batch(f, 2);
  EXPECT_EQ(result.num_inferences, 6u);
  EXPECT_GT(result.total_cycles, 0u);
  EXPECT_EQ(result.error_rate_percent, -1.0);
}

TEST(BatchRunner, EmptyDatasetIsHarmless) {
  const Fixture f = make_batch_fixture(0, /*seed=*/23);
  const BatchResult result = run_batch(f, 4);
  EXPECT_EQ(result.num_inferences, 0u);
  EXPECT_EQ(result.total_cycles, 0u);
  EXPECT_EQ(result.error_rate_percent, -1.0);
}

}  // namespace
}  // namespace sparsenn
