// Stepping equivalence: the event-driven core (SteppingMode::kEvent,
// sim/event_core.hpp) must be bit-identical to the per-cycle reference
// in every observable — cycle counts, event tallies, NoC statistics,
// activations — across uv modes, queue depths and flow-control modes,
// including on one simulator switched between the two modes. The
// seeded search over the wider architecture space is
// tests/engine_fuzz_test.cpp.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/params.hpp"
#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
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
// credits, which the event core must wait out exactly.
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

// The event core must actually skip work: simulated cycles strictly
// exceed the executed cycle iterations on a workload with slack — deep
// activation queues (the W queues drain with nothing else to do, so
// the loop jumps from pop to pop) and a dense input (every PE has a
// non-empty V burst, which the V loop jumps over).
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

// Fabrics that stress the event core's lazy router accounting: routers
// that sit credit-blocked for long stretches (every input nonzero at
// paper scale), one- and two-slot router buffers, a single-slot
// activation queue, the unbuffered handshake's multi-cycle credits on
// a three-level tree, and radix-2 and radix-8 trees of three or more
// levels. Each runs a {784, 96, 64, 10} network with rank-6 predictors
// in both uv modes, on an all-nonzero input and a sparse one.
struct Fabric {
  const char* name;
  ArchParams arch;

  friend void PrintTo(const Fabric& fabric, std::ostream* os) {
    *os << fabric.name;
  }
};

ArchParams tree_of(std::size_t radix, std::size_t levels) {
  ArchParams arch = ArchParams::paper();
  arch.router_radix = radix;
  arch.router_levels = levels;
  arch.num_pes = 1;
  for (std::size_t l = 0; l < levels; ++l) arch.num_pes *= radix;
  // Room for the 784-wide input in the activation registers.
  arch.act_regs_per_pe = (1024 + arch.num_pes - 1) / arch.num_pes;
  return arch;
}

std::vector<Fabric> stress_fabrics() {
  std::vector<Fabric> fabrics{{"paper", ArchParams::paper()},
                              {"radix2_3_levels", tree_of(2, 3)},
                              {"radix2_5_levels", tree_of(2, 5)},
                              {"radix8_3_levels", tree_of(8, 3)}};
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    ArchParams arch = ArchParams::paper();
    arch.router_buffer_depth = depth;
    fabrics.push_back({depth == 1 ? "router_buffer_1" : "router_buffer_2",
                       arch});
  }
  ArchParams unbuffered = ArchParams::paper();
  unbuffered.flow_control = FlowControl::kUnbuffered;
  fabrics.push_back({"unbuffered", unbuffered});
  ArchParams queue1 = ArchParams::paper();
  queue1.act_queue_depth = 1;
  fabrics.push_back({"act_queue_1", queue1});
  return fabrics;
}

class EventCoreFabric : public ::testing::TestWithParam<Fabric> {};

TEST_P(EventCoreFabric, BitIdenticalToPerCycle) {
  const ArchParams& arch = GetParam().arch;
  Rng rng{7331};
  Network net{{784, 96, 64, 10}, rng};
  net.set_predictor(0, Predictor::random(96, 784, 6, rng));
  net.set_predictor(1, Predictor::random(64, 96, 6, rng));
  Matrix calib(4, 784);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.05, 1.0));
  const QuantizedNetwork network(net, calib);

  std::vector<float> dense(784), sparse(784, 0.0f);
  for (float& x : dense) x = static_cast<float>(rng.uniform(0.05, 1.0));
  for (float& x : sparse) {
    if (rng.bernoulli(0.3)) x = static_cast<float>(rng.uniform(0.05, 1.0));
  }

  for (const bool use_predictor : {true, false}) {
    const CompiledNetwork compiled(network, arch, use_predictor);
    for (const auto* input : {&dense, &sparse}) {
      const SimResult per_cycle =
          run_mode(compiled, *input, arch, SteppingMode::kPerCycle);
      const SimResult event =
          run_mode(compiled, *input, arch, SteppingMode::kEvent);
      EXPECT_EQ(per_cycle, event)
          << GetParam().name << " uv=" << use_predictor
          << (input == &dense ? " dense" : " sparse");
    }
  }
  // The all-nonzero input keeps routers credit-blocked: the frozen
  // cycles the lazy accounting settles are really there.
  const CompiledNetwork uv_off(network, arch, false);
  const SimResult dense_run =
      run_mode(uv_off, dense, arch, SteppingMode::kEvent);
  EXPECT_EQ(dense_run.layers.front().nnz_inputs, 784u);
  EXPECT_GT(dense_run.layers.front().w_noc.credit_stalls, 0u);
}

INSTANTIATE_TEST_SUITE_P(Stress, EventCoreFabric,
                         ::testing::ValuesIn(stress_fabrics()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace sparsenn
