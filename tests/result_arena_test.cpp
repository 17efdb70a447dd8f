// Tests for src/sim/result_arena: the arena entry point of
// AcceleratorSim must be a pure storage optimisation — SimResults
// bit-identical to the heap-returning overload — and, with validation
// off, exactly zero heap allocations per steady-state inference (the
// last two ROADMAP perf items); the analytic engine's arena path is
// held to the same zero. Allocations are counted by the shared
// common/alloc_counter.hpp hook.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/alloc_counter.hpp"
#include "sim/accelerator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/result_arena.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

std::atomic<std::uint64_t>& g_allocs = alloc_counter::count();

using test_fixtures::make_batch_fixture;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;

TEST(ResultArena, BitIdenticalToHeapPath) {
  const Fixture f = make_batch_fixture(8, /*seed=*/77);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);
    AcceleratorSim heap_sim(tiny_arch());
    AcceleratorSim arena_sim(tiny_arch());
    ResultArena arena(compiled);
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const SimResult expected =
          heap_sim.run(compiled, f.data.image(i), ValidationMode::kFull);
      // Both validation modes through the arena; the slot is reused
      // across every iteration (the dirty-reuse case).
      EXPECT_EQ(arena_sim.run(compiled, f.data.image(i), arena,
                              ValidationMode::kFull),
                expected)
          << "input " << i << " uv " << uv_on << " (kFull)";
      EXPECT_EQ(arena_sim.run(compiled, f.data.image(i), arena,
                              ValidationMode::kOff),
                expected)
          << "input " << i << " uv " << uv_on << " (kOff)";
    }
  }
}

TEST(ResultArena, SteadyStateInferencesAreAllocationFree) {
  const Fixture f = make_batch_fixture(12, /*seed=*/81);
  for (const EngineKind kind : {EngineKind::kCycle, EngineKind::kAnalytic}) {
    for (const bool uv_on : {true, false}) {
      const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);
      const std::unique_ptr<ExecutionEngine> engine =
          make_engine(kind, tiny_arch());
      ResultArena arena(compiled);

      // One warm-up inference grows the engine's own scratch (the PE
      // scan buffers) to its steady capacity.
      (void)engine->run(compiled, f.data.image(0), arena,
                        ValidationMode::kOff);

      const std::uint64_t before = g_allocs.load();
      std::uint64_t cycles = 0;
      for (std::size_t i = 0; i < f.data.size(); ++i)
        cycles += engine->run(compiled, f.data.image(i), arena,
                              ValidationMode::kOff)
                      .total_cycles;
      const std::uint64_t allocs = g_allocs.load() - before;
      EXPECT_EQ(allocs, 0u) << to_string(kind) << " uv " << uv_on;
      EXPECT_GT(cycles, 0u);
    }
  }
}

TEST(ResultArena, ReusedAcrossDifferentNetworksStaysCorrect) {
  // An arena sized for one network must still produce exact results
  // after switching to another (pools regrow as needed).
  const Fixture a = make_batch_fixture(3, /*seed=*/87);
  const Fixture b = make_batch_fixture(3, /*seed=*/93);
  const CompiledNetwork ca(a.network, tiny_arch(), true);
  const CompiledNetwork cb(b.network, tiny_arch(), true);
  AcceleratorSim sim(tiny_arch());
  ResultArena arena(ca);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sim.run(ca, a.data.image(i), arena),
              AcceleratorSim(tiny_arch())
                  .run(ca, a.data.image(i), ValidationMode::kFull));
    EXPECT_EQ(sim.run(cb, b.data.image(i), arena),
              AcceleratorSim(tiny_arch())
                  .run(cb, b.data.image(i), ValidationMode::kFull));
  }
}

TEST(ResultArena, BatchAggregateOnlyPathIsMarginallyAllocationFree) {
  // The keep_results=false BatchRunner path folds arena-held results
  // into per-worker accumulators. Setup (threads, simulators, arenas,
  // the first validated inference) allocates; the marginal cost of
  // each further inference must be exactly zero — measured by running
  // the same batch at two sizes and comparing allocation totals.
  const Fixture f = make_batch_fixture(24, /*seed=*/99);
  BatchOptions options;
  options.num_threads = 1;  // one worker → deterministic setup costs
  options.keep_results = false;

  const auto run_and_count = [&](std::size_t samples) {
    BatchOptions o = options;
    o.max_samples = samples;
    const std::uint64_t before = g_allocs.load();
    const BatchResult r = BatchRunner(tiny_arch(), o).run(f.network, f.data);
    const std::uint64_t allocs = g_allocs.load() - before;
    EXPECT_EQ(r.num_inferences, samples);
    return allocs;
  };

  (void)run_and_count(12);  // warm anything process-global
  const std::uint64_t small = run_and_count(12);
  const std::uint64_t large = run_and_count(24);
  EXPECT_EQ(large, small)
      << "12 extra inferences must not allocate (marginal cost 0)";
}

// Compiling copies no weight and no row index: every slice views the
// network's own buffers, so building an image costs exactly one
// allocation (the slice table) in either uv mode, no matter how many
// PEs the network is spread over.
TEST(CompiledNetworkAllocations, IndependentOfPeCount) {
  const Fixture f = make_batch_fixture(1, /*seed=*/101);
  for (const bool uv_on : {true, false}) {
    const auto count = [&](const ArchParams& arch) {
      const std::uint64_t before = g_allocs.load();
      const CompiledNetwork compiled(f.network, arch, uv_on);
      return g_allocs.load() - before;
    };
    const std::uint64_t pe16 = count(tiny_arch());
    const std::uint64_t pe64 = count(ArchParams::paper());
    EXPECT_EQ(pe16, 1u) << "uv " << uv_on;
    EXPECT_EQ(pe64, 1u) << "uv " << uv_on;
  }
}

}  // namespace
}  // namespace sparsenn
