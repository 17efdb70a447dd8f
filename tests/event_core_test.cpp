// Stepping equivalence: the event-driven core (SteppingMode::kEvent,
// sim/event_core.hpp) must be bit-identical to the per-cycle reference
// in every observable — cycle counts, event tallies, NoC statistics,
// activations — across uv modes, queue depths and flow-control modes,
// including on one simulator switched between the two modes. A seeded
// fuzz case randomises the wake/sleep orderings (input density, queue
// depth, flow control) the same way noc_fuzz_test randomises traffic.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "arch/params.hpp"
#include "common/rng.hpp"
#include "sim/accelerator.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/result_arena.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;

std::vector<float> sample_of(const Dataset& data, std::size_t i) {
  const auto row = data.inputs.row(i);
  return std::vector<float>(row.begin(), row.end());
}

/// One inference on a freshly built simulator in `mode`.
SimResult run_mode(const CompiledNetwork& compiled,
                   std::span<const float> input, const ArchParams& arch,
                   SteppingMode mode) {
  AcceleratorSim sim(arch);
  sim.set_stepping_mode(mode);
  return sim.run(compiled, input, ValidationMode::kFull);
}

class EventCoreEquivalence : public ::testing::TestWithParam<bool> {};

// The core matrix: both uv modes x queue depths, full SimResult
// equality (cycles, events, NoC stats, activations — the defaulted
// operator== covers every field).
TEST_P(EventCoreEquivalence, BitIdenticalToPerCycle) {
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
          run_mode(compiled, input, arch, SteppingMode::kPerCycle);
      const SimResult event =
          run_mode(compiled, input, arch, SteppingMode::kEvent);
      EXPECT_EQ(per_cycle, event) << "event diverged, depth=" << depth;
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
        run_mode(compiled, input, arch, SteppingMode::kPerCycle);
    const SimResult event =
        run_mode(compiled, input, arch, SteppingMode::kEvent);
    EXPECT_EQ(per_cycle, event) << "unbuffered, sample=" << s;
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
        run_mode(compiled, input, arch, SteppingMode::kPerCycle);
    const SimResult event =
        run_mode(compiled, input, arch, SteppingMode::kEvent);
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

// Reuse lifecycle: one simulator switched event -> per-cycle -> event
// -> per-cycle, with its trees, broadcast channel, PE scratch and event
// core carried across every switch, through both run() overloads (the
// arena one reuses its result storage too). Every run must equal a
// freshly built per-cycle simulator's.
TEST(EventCoreLifecycle, SteppingFlipMatchesFreshPerCycle) {
  const auto fixture = make_batch_fixture(8, /*seed=*/74);
  const SteppingMode flips[] = {SteppingMode::kEvent, SteppingMode::kPerCycle,
                                SteppingMode::kEvent, SteppingMode::kPerCycle};
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    ArchParams arch = test_fixtures::tiny_arch();
    arch.act_queue_depth = depth;
    AcceleratorSim sim(arch);
    for (const bool use_predictor : {true, false}) {
      const CompiledNetwork compiled(fixture.network, arch, use_predictor);
      ResultArena arena(compiled);
      std::vector<SimResult> expected;
      for (std::size_t s = 0; s < fixture.data.inputs.rows(); ++s)
        expected.push_back(run_mode(compiled, sample_of(fixture.data, s),
                                    arch, SteppingMode::kPerCycle));

      for (const SteppingMode mode : flips) {
        sim.set_stepping_mode(mode);
        for (std::size_t s = 0; s < expected.size(); ++s) {
          const std::vector<float> input = sample_of(fixture.data, s);
          EXPECT_EQ(sim.run(compiled, input, ValidationMode::kFull),
                    expected[s])
              << "heap, mode=" << to_string(mode) << " depth=" << depth
              << " uv=" << use_predictor << " sample=" << s;
          EXPECT_EQ(sim.run(compiled, input, arena, ValidationMode::kOff),
                    expected[s])
              << "arena, mode=" << to_string(mode) << " depth=" << depth
              << " uv=" << use_predictor << " sample=" << s;
        }
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
