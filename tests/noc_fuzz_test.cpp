// Randomised property tests of the NoC protocol: whatever traffic is
// offered, the H-tree must conserve flits (no loss, no duplication),
// preserve per-source FIFO order, never overflow a buffer (the credit
// protocol would trap), and always drain to idle. A differential case
// holds the tree's event-driven stepping to step() on the same seeded
// traffic, in both router modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/htree.hpp"

namespace sparsenn {
namespace {

struct FuzzConfig {
  std::size_t num_pes;
  std::size_t levels;
  FlowControl flow;
  std::size_t buffer_depth;
  double inject_probability;  ///< chance a ready PE injects this cycle
  double drain_probability;   ///< chance the root consumer is ready
  std::uint64_t seed;
};

class NocFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(NocFuzz, ConservationOrderAndDrain) {
  const FuzzConfig config = GetParam();
  ArchParams params;
  params.num_pes = config.num_pes;
  params.router_levels = config.levels;
  params.flow_control = config.flow;
  params.router_buffer_depth = config.buffer_depth;
  params.validate();

  Rng rng{config.seed};
  UpwardTree tree(params, RouterMode::kArbitrate);

  // Random per-PE traffic with ascending indices (as an LNZD produces).
  std::vector<std::vector<Flit>> pending(params.num_pes);
  std::size_t total = 0;
  for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
    const std::size_t n = rng.uniform_index(24);
    std::uint32_t index = static_cast<std::uint32_t>(pe);
    for (std::size_t k = 0; k < n; ++k) {
      index += static_cast<std::uint32_t>(
          params.num_pes * (1 + rng.uniform_index(3)));
      pending[pe].push_back(
          Flit{.index = index,
               .payload = static_cast<std::int64_t>(rng.uniform_index(1 << 20)),
               .source = static_cast<std::uint16_t>(pe)});
      ++total;
    }
  }
  std::map<std::uint32_t, std::int64_t> expected;
  for (const auto& q : pending)
    for (const Flit& f : q) expected[f.index] += f.payload;

  std::map<std::uint32_t, std::int64_t> received;
  std::map<std::uint16_t, std::uint32_t> last_index_from;
  std::size_t count = 0;
  std::uint64_t guard = 0;

  // Inject and drain stochastically; then force-drain.
  while (count < total) {
    ASSERT_LT(++guard, 2'000'000u)
        << "deadlock at " << count << "/" << total;
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      if (!pending[pe].empty() && tree.can_inject(pe) &&
          rng.uniform() < config.inject_probability) {
        tree.inject(pe, pending[pe].front());
        pending[pe].erase(pending[pe].begin());
      }
    }
    const bool ready = rng.uniform() < config.drain_probability;
    if (const auto out = tree.step(ready)) {
      ASSERT_TRUE(ready) << "flit left the root while consumer stalled";
      received[out->index] += out->payload;
      ++count;
      // Per-source FIFO order must survive arbitrary arbitration.
      const auto it = last_index_from.find(out->source);
      if (it != last_index_from.end()) {
        EXPECT_GT(out->index, it->second)
            << "PE " << out->source << " flits reordered";
      }
      last_index_from[out->source] = out->index;
    }
  }

  EXPECT_EQ(received, expected);  // conservation: no loss, no dupes
  // The tree must be fully drained once everything was delivered.
  std::size_t settle = 0;
  while (!tree.idle()) {
    ASSERT_LT(++settle, 1000u) << "tree did not drain to idle";
    tree.step(true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, NocFuzz,
    ::testing::Values(
        // Paper-scale, smooth traffic.
        FuzzConfig{64, 3, FlowControl::kPacketBufferCredit, 4, 1.0, 1.0,
                   101},
        // Paper-scale, bursty injection and a slow consumer.
        FuzzConfig{64, 3, FlowControl::kPacketBufferCredit, 4, 0.4, 0.5,
                   102},
        // Deep buffers.
        FuzzConfig{64, 3, FlowControl::kPacketBufferCredit, 8, 0.8, 0.9,
                   103},
        // Unbuffered handshake under pressure.
        FuzzConfig{64, 3, FlowControl::kUnbuffered, 4, 1.0, 0.7, 104},
        // Small array, stuttering consumer.
        FuzzConfig{16, 2, FlowControl::kPacketBufferCredit, 4, 0.6, 0.3,
                   105},
        // Minimal array.
        FuzzConfig{4, 1, FlowControl::kPacketBufferCredit, 2, 1.0, 1.0,
                   106}),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      const FuzzConfig& c = info.param;
      return std::to_string(c.num_pes) + "pe_" +
             (c.flow == FlowControl::kUnbuffered ? "unbuffered"
                                                 : "buffered") +
             "_seed" + std::to_string(c.seed);
    });

/// The reduction mode under the same stochastic stress: sums must stay
/// exact whatever the injection pattern.
TEST(NocFuzzReduction, StochasticReductionStaysExact) {
  ArchParams params;  // paper scale
  for (const std::uint64_t seed : {201u, 202u, 203u}) {
    Rng rng{seed};
    UpwardTree tree(params, RouterMode::kAccumulate);
    const std::size_t rank = 1 + rng.uniform_index(24);

    std::vector<std::int64_t> expected(rank, 0);
    std::vector<std::vector<Flit>> pending(params.num_pes);
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      for (std::uint32_t row = 0; row < rank; ++row) {
        const auto value =
            static_cast<std::int64_t>(rng.uniform_index(1 << 16)) -
            (1 << 15);
        pending[pe].push_back(
            Flit{.index = row, .payload = value,
                 .source = static_cast<std::uint16_t>(pe)});
        expected[row] += value;
      }
    }

    std::vector<std::int64_t> sums;
    std::uint64_t guard = 0;
    while (sums.size() < rank) {
      ASSERT_LT(++guard, 1'000'000u) << "reduction deadlocked";
      for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
        if (!pending[pe].empty() && tree.can_inject(pe) &&
            rng.bernoulli(0.7)) {
          tree.inject(pe, pending[pe].front());
          pending[pe].erase(pending[pe].begin());
        }
      }
      if (const auto out = tree.step(rng.bernoulli(0.8))) {
        EXPECT_EQ(out->index, sums.size());
        sums.push_back(out->payload);
      }
    }
    EXPECT_EQ(sums, expected) << "seed " << seed;
  }
}

// ---------------------------------------------- lazy vs step() stepping

/// One phase of seeded traffic: each PE's flits and the cycle it may
/// first inject, and the cycles the root's consumer is stalled.
struct Traffic {
  std::vector<std::vector<Flit>> flits;
  std::vector<std::uint64_t> first;
  /// Sorted, disjoint [from, to) windows in which the root's consumer
  /// is not ready.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stalls;

  bool root_ready(std::uint64_t t) const {
    for (const auto& [from, to] : stalls)
      if (t >= from && t < to) return false;
    return true;
  }
  /// The first cycle after `t` at which root_ready() changes, or
  /// kNoCycle.
  std::uint64_t next_change(std::uint64_t t) const {
    for (const auto& [from, to] : stalls) {
      if (from > t) return from;
      if (to > t) return to;
    }
    return UpwardTree::kNoCycle;
  }
};

/// Arbitrate traffic is what an LNZD produces: ascending activation
/// indices per PE, some PEs silent. Reduction traffic is the V phase's:
/// every PE sends every row of a rank, in row order.
Traffic make_traffic(const ArchParams& params, RouterMode mode, Rng& rng) {
  Traffic traffic;
  traffic.flits.resize(params.num_pes);
  const std::size_t rank = 1 + rng.uniform_index(16);
  for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
    std::vector<Flit>& flits = traffic.flits[pe];
    const auto flit = [&](std::uint32_t index) {
      return Flit{.index = index,
                  .payload = static_cast<std::int64_t>(
                                 rng.uniform_index(1 << 16)) - (1 << 15),
                  .source = static_cast<std::uint16_t>(pe)};
    };
    if (mode == RouterMode::kArbitrate) {
      const std::size_t n = rng.uniform_index(12);
      std::uint32_t index = static_cast<std::uint32_t>(pe);
      for (std::size_t k = 0; k < n; ++k) {
        index += static_cast<std::uint32_t>(
            params.num_pes * (1 + rng.uniform_index(3)));
        flits.push_back(flit(index));
      }
    } else {
      for (std::uint32_t row = 0; row < rank; ++row)
        flits.push_back(flit(row));
    }
    traffic.first.push_back(1 + rng.uniform_index(24));
  }
  for (std::uint64_t t = 1 + rng.uniform_index(16); t < 200;) {
    const std::uint64_t to = t + 1 + rng.uniform_index(12);
    if (rng.bernoulli(0.5)) traffic.stalls.emplace_back(t, to);
    t = to + 1 + rng.uniform_index(24);
  }
  return traffic;
}

struct RootFlit {
  std::uint64_t cycle;
  Flit flit;
  friend bool operator==(const RootFlit&, const RootFlit&) = default;
};

/// The reference: step() every cycle, with every PE injecting whenever
/// its leaf port has room from its first cycle on, until the tree has
/// drained. Returns the flits leaving the root, and the last cycle in
/// `end`.
std::vector<RootFlit> run_step(UpwardTree& tree, const Traffic& traffic,
                               std::uint64_t& end) {
  std::vector<RootFlit> out;
  std::vector<std::size_t> sent(traffic.flits.size(), 0);
  std::size_t left = 0;
  for (const auto& flits : traffic.flits) left += flits.size();
  end = 0;
  for (std::uint64_t t = 1; left > 0 || !tree.idle(); ++t) {
    if (t > 100'000) {
      ADD_FAILURE() << "step() did not drain";
      break;
    }
    for (std::size_t pe = 0; pe < traffic.flits.size(); ++pe) {
      const std::vector<Flit>& flits = traffic.flits[pe];
      if (sent[pe] == flits.size() || t < traffic.first[pe] ||
          !tree.can_inject(pe))
        continue;
      tree.inject(pe, flits[sent[pe]++]);
      --left;
    }
    if (const auto flit = tree.step(traffic.root_ready(t)))
      out.push_back({t, *flit});
    end = t;
  }
  return out;
}

/// The event-driven section on the same traffic, run only at the
/// cycles it asks for (and where the consumer's readiness changes),
/// through cycle `end`, then settled there.
std::vector<RootFlit> run_lazy(UpwardTree& tree, const Traffic& traffic,
                               std::uint64_t end) {
  std::vector<RootFlit> out;
  std::vector<std::size_t> sent(traffic.flits.size(), 0);
  for (std::size_t pe = 0; pe < traffic.flits.size(); ++pe)
    if (!traffic.flits[pe].empty())
      tree.add_injector(pe, traffic.first[pe]);
  const auto next = [&](std::uint64_t t) {
    return std::min(tree.next_cycle(traffic.root_ready(t + 1)),
                    traffic.next_change(t + 1));
  };
  for (std::uint64_t t = next(0); t <= end; t = next(t)) {
    for (const std::uint32_t pe : tree.begin_cycle(t)) {
      const std::vector<Flit>& flits = traffic.flits[pe];
      const Flit& flit = flits[sent[pe]++];
      tree.inject_lazy(pe, flit, sent[pe] < flits.size());
    }
    if (const auto flit = tree.step_lazy(traffic.root_ready(t)))
      out.push_back({t, *flit});
  }
  tree.settle(end);
  return out;
}

struct TreeFabric {
  std::size_t radix;
  std::size_t levels;
  std::size_t buffer_depth;
  bool unbuffered;
  std::size_t pipeline;  ///< the unbuffered handshake's credit latency
};

std::string describe(const TreeFabric& f, RouterMode mode,
                     std::uint64_t seed) {
  std::ostringstream os;
  os << (mode == RouterMode::kArbitrate ? "arbitrate" : "accumulate")
     << " radix " << f.radix << " levels " << f.levels << " buffer "
     << f.buffer_depth << (f.unbuffered ? " unbuffered, credit latency "
                                        : " buffered, credit latency ")
     << (f.unbuffered ? f.pipeline : 1) << ", seed " << seed;
  return os.str();
}

// The event-driven section must match step() cycle for cycle: the same
// flit leaves the root on every cycle (and none on the cycles it
// skips), and the settled statistics are the same. Both router modes,
// radix 2/4/8, buffer depths 1/2/4, buffered credits (latency 1) and
// the unbuffered handshake's multi-cycle credits, with staggered first
// injections and a root consumer that stalls now and then.
TEST(NocLazyDifferential, MatchesStepEveryCycle) {
  std::vector<TreeFabric> fabrics;
  for (const std::size_t radix : {2u, 4u, 8u}) {
    for (const std::size_t depth : {1u, 2u, 4u}) {
      const std::size_t levels = radix == 8 ? 2 : radix == 4 ? 3 : 5;
      fabrics.push_back({radix, levels, depth, false, 4});
      fabrics.push_back({radix, levels - 1, depth, true, 2 + depth});
    }
  }
  std::uint64_t seed = 0;
  for (const RouterMode mode :
       {RouterMode::kArbitrate, RouterMode::kAccumulate}) {
    for (const TreeFabric& fabric : fabrics) {
      ArchParams params;
      params.router_radix = fabric.radix;
      params.router_levels = fabric.levels;
      params.num_pes = 1;
      for (std::size_t l = 0; l < fabric.levels; ++l)
        params.num_pes *= fabric.radix;
      params.router_buffer_depth = fabric.buffer_depth;
      params.router_pipeline_stages = fabric.pipeline;
      if (fabric.unbuffered) params.flow_control = FlowControl::kUnbuffered;
      UpwardTree reference(params, mode);
      UpwardTree lazy(params, mode);
      // Twelve phases per fabric on the same two trees: reset() must
      // leave nothing behind from the phase before.
      for (int phase = 0; phase < 12; ++phase) {
        ++seed;
        SCOPED_TRACE(describe(fabric, mode, seed));
        Rng rng{seed};
        const Traffic traffic = make_traffic(params, mode, rng);
        reference.reset();
        lazy.reset();
        std::uint64_t end = 0;
        const std::vector<RootFlit> expected =
            run_step(reference, traffic, end);
        EXPECT_EQ(run_lazy(lazy, traffic, end), expected);
        EXPECT_EQ(lazy.stats(), reference.stats());
        EXPECT_TRUE(lazy.idle());
      }
    }
  }
}

}  // namespace
}  // namespace sparsenn
