// Stepping equivalence: the event-driven core (SteppingMode::kEvent,
// sim/event_core.hpp) must be bit-identical to the per-cycle reference
// in every observable — cycle counts, event tallies, NoC statistics,
// activations — across uv modes, queue depths, flow-control modes and
// shard-thread counts. A seeded fuzz case randomises the wake/sleep
// orderings (input density, queue depth, flow control) the same way
// noc_fuzz_test randomises traffic.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "arch/params.hpp"
#include "common/rng.hpp"
#include "sim/accelerator.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;

std::vector<float> sample_of(const Dataset& data, std::size_t i) {
  const auto row = data.inputs.row(i);
  return std::vector<float>(row.begin(), row.end());
}

SimResult run_mode(const CompiledNetwork& compiled,
                   std::span<const float> input, const ArchParams& arch,
                   SteppingMode mode, std::size_t threads) {
  AcceleratorSim sim(arch);
  sim.set_sim_options(SimOptions{.stepping = mode, .sim_threads = threads});
  return sim.run(compiled, input, ValidationMode::kFull);
}

class EventCoreEquivalence : public ::testing::TestWithParam<bool> {};

// The core matrix: both uv modes x queue depths x thread counts, full
// SimResult equality (cycles, events, NoC stats, activations — the
// defaulted operator== covers every field).
TEST_P(EventCoreEquivalence, ThreeWayBitIdentical) {
  const bool use_predictor = GetParam();
  const auto fixture = make_batch_fixture(3, /*seed=*/71);

  for (const std::size_t depth : {std::size_t{2}, std::size_t{8},
                                  std::size_t{32}}) {
    ArchParams arch = test_fixtures::tiny_arch();
    arch.act_queue_depth = depth;
    const CompiledNetwork compiled(fixture.network, arch, use_predictor);

    for (std::size_t s = 0; s < fixture.data.inputs.rows(); ++s) {
      const std::vector<float> input = sample_of(fixture.data, s);
      const SimResult per_cycle =
          run_mode(compiled, input, arch, SteppingMode::kPerCycle, 1);
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const SimResult event = run_mode(compiled, input, arch,
                                         SteppingMode::kEvent, threads);
        EXPECT_EQ(per_cycle, event)
            << "event diverged, depth=" << depth
            << " threads=" << threads;
      }
    }
  }
}

// The unbuffered ablation serialises transfers through multi-cycle
// credits — the wait-skip window must stay provably safe (or decline).
TEST_P(EventCoreEquivalence, UnbufferedFlowControl) {
  const bool use_predictor = GetParam();
  const auto fixture = make_batch_fixture(2, /*seed=*/72);

  ArchParams arch = test_fixtures::tiny_arch();
  arch.flow_control = FlowControl::kUnbuffered;
  const CompiledNetwork compiled(fixture.network, arch, use_predictor);

  for (std::size_t s = 0; s < fixture.data.inputs.rows(); ++s) {
    const std::vector<float> input = sample_of(fixture.data, s);
    const SimResult per_cycle =
        run_mode(compiled, input, arch, SteppingMode::kPerCycle, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const SimResult event = run_mode(compiled, input, arch,
                                       SteppingMode::kEvent, threads);
      EXPECT_EQ(per_cycle, event) << "unbuffered, threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UvModes, EventCoreEquivalence,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "uv_on" : "uv_off";
                         });

// Seeded fuzz over the wake/sleep orderings: random input density
// (from near-empty to dense), queue depth and flow control reshuffle
// which PEs sleep, wake, stall and drain first. Cycle counts and the
// full result must match the per-cycle reference every time.
TEST(EventCoreFuzz, RandomizedWakeOrderings) {
  Rng rng{2026};
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t depth_choices[] = {1, 2, 4, 8, 16};
    ArchParams arch = test_fixtures::tiny_arch();
    arch.act_queue_depth = depth_choices[rng.uniform_index(5)];
    if (rng.bernoulli(0.25))
      arch.flow_control = FlowControl::kUnbuffered;
    const bool use_predictor = rng.bernoulli(0.5);

    Rng net_rng{rng.uniform_index(1 << 20)};
    const QuantizedNetwork network =
        test_fixtures::seeded_network(net_rng);
    const CompiledNetwork compiled(network, arch, use_predictor);

    const double density = rng.uniform(0.05, 1.0);
    std::vector<float> input(24, 0.0f);
    for (float& x : input) {
      if (rng.bernoulli(density))
        x = static_cast<float>(rng.uniform(0.0, 1.0));
    }

    const SimResult per_cycle =
        run_mode(compiled, input, arch, SteppingMode::kPerCycle, 1);
    const SimResult event = run_mode(compiled, input, arch,
                                     SteppingMode::kEvent,
                                     1 + rng.uniform_index(4));
    ASSERT_EQ(per_cycle.total_cycles, event.total_cycles)
        << "iter=" << iter;
    ASSERT_EQ(per_cycle, event) << "iter=" << iter;
  }
}

// The event core must actually skip work: simulated cycles strictly
// exceed the executed cycle iterations on a workload with slack — deep
// activation queues (no backpressure, so the W drain tail collapses
// into the closed-form jump) and a dense input (every PE has a
// non-empty V burst, so the initial wake jump fires too).
TEST(EventCoreStats, SkipsCycles) {
  const auto fixture = make_batch_fixture(1, /*seed=*/73);
  ArchParams arch = test_fixtures::tiny_arch();
  arch.act_queue_depth = 32;
  const CompiledNetwork compiled(fixture.network, arch, true);

  AcceleratorSim sim(arch);
  ASSERT_EQ(sim.stepping_mode(), SteppingMode::kEvent);  // the default
  const std::vector<float> input(24, 0.75f);
  (void)sim.run(compiled, input, ValidationMode::kFull);

  const EventCore::Stats& stats = sim.event_core_stats();
  EXPECT_GT(stats.cycles_ticked, 0u);
  EXPECT_GT(stats.events_executed, 0u);
  EXPECT_LT(stats.events_executed, stats.cycles_ticked);

  sim.reset_event_core_stats();
  EXPECT_EQ(sim.event_core_stats(), EventCore::Stats{});
}

// Reconfiguration lifecycle: one simulator resized through a sequence
// of shard-thread counts. Workers spawned after earlier epochs must
// wait for the next epoch, not replay the last one, and every step
// must reproduce the single-thread result exactly.
TEST(EventCoreThreads, ReconfiguredSimulatorStaysBitIdentical) {
  const auto fixture = make_batch_fixture(2, /*seed=*/74);
  const ArchParams arch = test_fixtures::tiny_arch();
  for (const bool use_predictor : {true, false}) {
    const CompiledNetwork compiled(fixture.network, arch, use_predictor);
    std::vector<SimResult> expected;
    for (std::size_t s = 0; s < fixture.data.inputs.rows(); ++s)
      expected.push_back(run_mode(compiled, sample_of(fixture.data, s),
                                  arch, SteppingMode::kEvent, 1));

    AcceleratorSim sim(arch);
    const std::size_t steps[] = {1, 2, 4, 2, 8, 1};
    for (const std::size_t threads : steps) {
      sim.set_sim_options(SimOptions{.stepping = SteppingMode::kEvent,
                                     .sim_threads = threads});
      for (std::size_t s = 0; s < expected.size(); ++s) {
        EXPECT_EQ(sim.run(compiled, sample_of(fixture.data, s),
                          ValidationMode::kFull),
                  expected[s])
            << "threads=" << threads << " sample=" << s
            << " uv=" << use_predictor;
      }
    }
  }
}

// The per-cycle oracle shards its per-PE passes (layer prologue, U
// phase, uv_off row forcing) through the same epoch pool as the event
// core: any shard-thread count must reproduce its 1-thread result.
TEST(EventCoreThreads, PerCycleShardingStaysBitIdentical) {
  const auto fixture = make_batch_fixture(2, /*seed=*/75);
  const ArchParams arch = test_fixtures::tiny_arch();
  for (const bool use_predictor : {true, false}) {
    const CompiledNetwork compiled(fixture.network, arch, use_predictor);
    for (std::size_t s = 0; s < fixture.data.inputs.rows(); ++s) {
      const std::vector<float> input = sample_of(fixture.data, s);
      const SimResult expected =
          run_mode(compiled, input, arch, SteppingMode::kPerCycle, 1);
      for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        EXPECT_EQ(run_mode(compiled, input, arch, SteppingMode::kPerCycle,
                           threads),
                  expected)
            << "threads=" << threads << " sample=" << s
            << " uv=" << use_predictor;
      }
    }
  }
}

TEST(SteppingModeNames, RoundTrip) {
  for (const SteppingMode mode :
       {SteppingMode::kPerCycle, SteppingMode::kEvent}) {
    const auto parsed = parse_stepping_mode(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_stepping_mode("macro").has_value());
  EXPECT_FALSE(parse_stepping_mode("warp").has_value());
  EXPECT_FALSE(parse_stepping_mode("").has_value());
}

}  // namespace
}  // namespace sparsenn
