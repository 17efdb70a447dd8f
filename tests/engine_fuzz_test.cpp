// Differential fuzzing over the architecture space: one seeded
// generator draws a fabric, a network, a prediction threshold and
// inputs, and every draw must satisfy the engines' contracts:
//
//   - the event core (SteppingMode::kEvent) equals the per-cycle
//     oracle on the whole SimResult;
//   - the analytic engine's predictions (activations, output, nnz and
//     active-row counts and the slowest PE's shares of each), its
//     census fields other than `cycles` and its flit counts equal the
//     cycle engine's;
//   - its V, U and W phase cycles are never above the cycle engine's
//     (its closed forms model no contention, so they may run low).
//
// The fixed equivalence suites pin a few named fabrics; this one
// ranges over them: radix 2, 4 or 8 with up to 256 PEs, router buffers
// of 1–8 flits, activation queues of 1–32, router and PE pipelines of
// 1–6 stages, 20% unbuffered flow control; networks of 1–3 hidden
// layers up to 207 wide with rank 1–24 predictors (15% of hidden
// layers without one) and, on 20% of networks, a threshold θ in
// [−0.2, 0.2]; inputs of a random density plus an all-zero or
// all-nonzero one. The event and analytic engines and one ResultArena
// are reused across every network of a seed's fabric, alternating the
// heap and arena entry points, and the event engine's stepping mode
// flips between kEvent and kPerCycle; the oracle is fresh for each
// network. Every draw checks the event core against the oracle.
// A failure names the seed and the fabric. The seed list is cut to a
// slice in unoptimised and sanitizer builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/result_arena.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPARSENN_FUZZ_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPARSENN_FUZZ_SANITIZED 1
#endif
#endif

namespace sparsenn {
namespace {

#if defined(__OPTIMIZE__) && !defined(SPARSENN_FUZZ_SANITIZED)
constexpr std::uint64_t kSeeds = 700;
#else
constexpr std::uint64_t kSeeds = 60;
#endif

constexpr std::size_t kNetworksPerFabric = 2;
constexpr std::size_t kMaxWidth = 207;

/// One seed's fabric and its description for failure messages.
struct Fabric {
  ArchParams arch;
  std::string name;
};

Fabric make_fabric(Rng& rng) {
  ArchParams arch;
  const std::size_t radices[] = {2, 4, 8};
  arch.router_radix = radices[rng.uniform_index(3)];
  // 1–6 levels, as many as keep the array at 256 PEs or fewer.
  std::size_t max_levels = 0;
  for (std::size_t pes = arch.router_radix; pes <= 256 && max_levels < 6;
       pes *= arch.router_radix)
    ++max_levels;
  arch.router_levels = 1 + rng.uniform_index(max_levels);
  arch.num_pes = 1;
  for (std::size_t l = 0; l < arch.router_levels; ++l)
    arch.num_pes *= arch.router_radix;
  const std::size_t buffers[] = {1, 2, 3, 4, 8};
  arch.router_buffer_depth = buffers[rng.uniform_index(5)];
  arch.act_queue_depth = 1 + rng.uniform_index(32);
  arch.router_pipeline_stages = 1 + rng.uniform_index(6);
  arch.pe_pipeline_stages = 1 + rng.uniform_index(6);
  if (rng.bernoulli(0.2)) arch.flow_control = FlowControl::kUnbuffered;
  // Room for the widest layer in the activation registers.
  arch.act_regs_per_pe = std::max<std::size_t>(
      arch.act_regs_per_pe, (kMaxWidth + arch.num_pes - 1) / arch.num_pes);
  arch.validate();

  std::ostringstream os;
  os << arch.num_pes << " PEs (radix " << arch.router_radix << ", "
     << arch.router_levels << " levels), " << to_string(arch.flow_control)
     << ", router buffer " << arch.router_buffer_depth << ", queue "
     << arch.act_queue_depth << ", router pipeline "
     << arch.router_pipeline_stages << ", PE pipeline "
     << arch.pe_pipeline_stages;
  return {arch, os.str()};
}

/// A random network: 1–3 hidden layers, every layer 1–207 wide, rank
/// 1–24 predictors on 85% of hidden layers, θ in [−0.2, 0.2] on 20% of
/// networks. `name` receives its description.
QuantizedNetwork make_network(Rng& rng, std::string& name) {
  std::vector<std::size_t> sizes(2 + 1 + rng.uniform_index(3));
  for (std::size_t& width : sizes)
    width = 1 + rng.uniform_index(kMaxWidth);
  Network net{sizes, rng};
  std::ostringstream os;
  os << "layers";
  for (const std::size_t width : sizes) os << ' ' << width;
  os << ", ranks";
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const std::size_t rank =
        rng.bernoulli(0.15) ? 0 : 1 + rng.uniform_index(24);
    os << ' ' << rank;
    if (rank > 0) {
      net.set_predictor(
          l, Predictor::random(sizes[l + 1], sizes[l], rank, rng));
    }
  }
  Matrix calibration(4, sizes.front());
  for (float& x : calibration.flat())
    x = rng.bernoulli(0.3) ? 0.0f : static_cast<float>(rng.uniform(0.0, 1.0));
  QuantizedNetwork network(net, calibration);
  if (rng.bernoulli(0.2)) {
    const double theta = rng.uniform(-0.2, 0.2);
    network.set_prediction_threshold(theta);
    os << ", theta " << theta;
  }
  name = os.str();
  return network;
}

/// An input of a random density, then an all-zero or all-nonzero one.
std::vector<std::vector<float>> make_inputs(Rng& rng, std::size_t width) {
  std::vector<std::vector<float>> inputs(2,
                                         std::vector<float>(width, 0.0f));
  const double density = rng.uniform();
  for (float& x : inputs[0]) {
    if (rng.bernoulli(density))
      x = static_cast<float>(rng.uniform(0.05, 1.0));
  }
  if (rng.bernoulli(0.5)) {
    for (float& x : inputs[1]) x = static_cast<float>(rng.uniform(0.05, 1.0));
  }
  return inputs;
}

/// The first field in which two results differ, or "" when equal.
std::string first_difference(const SimResult& a, const SimResult& b) {
  if (a == b) return "";
  if (a.layers.size() != b.layers.size()) return "layer count";
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const LayerSimResult& x = a.layers[l];
    const LayerSimResult& y = b.layers[l];
    if (x == y) continue;
    std::ostringstream os;
    os << "layer " << l << ": ";
    if (x.v_cycles != y.v_cycles || x.u_cycles != y.u_cycles ||
        x.w_cycles != y.w_cycles) {
      os << "V/U/W cycles " << x.v_cycles << '/' << x.u_cycles << '/'
         << x.w_cycles << " vs " << y.v_cycles << '/' << y.u_cycles << '/'
         << y.w_cycles;
    } else if (x.v_noc != y.v_noc) {
      os << "V NoC statistics";
    } else if (x.w_noc != y.w_noc) {
      os << "W NoC statistics";
    } else if (x.events != y.events) {
      os << "event counts";
    } else {
      os << "activations or sparsity counts";
    }
    return os.str();
  }
  return "output or total cycles";
}

/// Census fields but `cycles`, in declaration order.
std::vector<std::uint64_t> census_but_cycles(const EventCounts& e) {
  return {e.w_mem_reads,    e.u_mem_reads,   e.v_mem_reads,
          e.macs,           e.act_reg_reads, e.act_reg_writes,
          e.queue_ops,      e.predictor_bits, e.lnzd_scans,
          e.router_flits,   e.router_acc_ops, e.pe_active_cycles};
}

/// The NoC statistics that do not depend on timing.
std::vector<std::uint64_t> flit_counts(const NocStats& n) {
  return {n.flit_hops, n.acc_operations, n.root_flits};
}

void expect_analytic_contract(const SimResult& exact,
                              const SimResult& fast) {
  EXPECT_EQ(fast.output, exact.output);
  ASSERT_EQ(fast.layers.size(), exact.layers.size());
  for (std::size_t l = 0; l < exact.layers.size(); ++l) {
    SCOPED_TRACE("layer " + std::to_string(l));
    const LayerSimResult& x = exact.layers[l];
    const LayerSimResult& y = fast.layers[l];
    EXPECT_EQ(y.activations, x.activations);
    EXPECT_EQ(y.nnz_inputs, x.nnz_inputs);
    EXPECT_EQ(y.active_rows, x.active_rows);
    EXPECT_EQ(y.max_pe_nnz_inputs, x.max_pe_nnz_inputs);
    EXPECT_EQ(y.max_pe_active_rows, x.max_pe_active_rows);
    EXPECT_EQ(census_but_cycles(y.events), census_but_cycles(x.events));
    EXPECT_EQ(flit_counts(y.v_noc), flit_counts(x.v_noc));
    EXPECT_EQ(flit_counts(y.w_noc), flit_counts(x.w_noc));
    EXPECT_LE(y.v_cycles, x.v_cycles);
    EXPECT_LE(y.u_cycles, x.u_cycles);
    EXPECT_LE(y.w_cycles, x.w_cycles);
  }
}

TEST(EngineFuzz, EnginesKeepTheirContractsAcrossTheArchitectureSpace) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng{seed};
    const Fabric fabric = make_fabric(rng);
    AcceleratorSim event(fabric.arch);
    AnalyticEngine analytic(fabric.arch);
    // Reused like the engines. Draw d runs the event core through the
    // arena entry point when d is odd and the heap one when d is even,
    // and the analytic engine through the other; when bit 1 of d is
    // set, the event engine also runs per cycle through the other, so
    // its stepping mode flips between runs. d counts from the seed, so
    // across seeds every network, uv mode and input takes each choice.
    ResultArena arena;
    std::size_t draw = seed;
    for (std::size_t n = 0; n < kNetworksPerFabric; ++n) {
      std::string network_name;
      const QuantizedNetwork network = make_network(rng, network_name);
      const auto inputs = make_inputs(rng, network.layer(0).in_dim());
      for (const bool use_predictor : {true, false}) {
        const CompiledNetwork compiled(network, fabric.arch, use_predictor);
        AcceleratorSim oracle(fabric.arch);
        oracle.set_stepping_mode(SteppingMode::kPerCycle);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          SCOPED_TRACE("seed " + std::to_string(seed) + ": " + fabric.name +
                       "; " + network_name + "; uv " +
                       (use_predictor ? "on" : "off") + ", input " +
                       std::to_string(i));
          const SimResult exact =
              oracle.run(compiled, inputs[i], ValidationMode::kFull);
          const bool event_in_arena = draw % 2 == 1;
          const bool also_per_cycle = (draw & 2) != 0;
          ++draw;
          SCOPED_TRACE(std::string{"event core through the "} +
                       (event_in_arena ? "arena" : "heap") + " entry point");
          const auto run_on = [&](ExecutionEngine& engine, bool in_arena) {
            return in_arena ? engine.run(compiled, inputs[i], arena,
                                         ValidationMode::kOff)
                            : engine.run(compiled, inputs[i],
                                         ValidationMode::kOff);
          };
          event.set_stepping_mode(SteppingMode::kEvent);
          ASSERT_EQ(first_difference(run_on(event, event_in_arena), exact),
                    "")
              << "the reused event core diverged from a fresh oracle";
          if (also_per_cycle) {
            event.set_stepping_mode(SteppingMode::kPerCycle);
            ASSERT_EQ(
                first_difference(run_on(event, !event_in_arena), exact), "")
                << "the reused event engine, stepped per cycle, diverged "
                   "from a fresh oracle";
          }
          expect_analytic_contract(exact, run_on(analytic, !event_in_arena));
          if (HasFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sparsenn
