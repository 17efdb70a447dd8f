// Tests for src/noc: router arbitration and credit flow control, the
// accumulate (reduction) mode, H-tree delivery properties, and the
// broadcast channel.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "noc/htree.hpp"
#include "noc/router.hpp"

namespace sparsenn {
namespace {

Flit flit(std::uint32_t index, std::int64_t payload = 1,
          std::uint16_t source = 0) {
  return Flit{.index = index, .payload = payload, .source = source};
}

TEST(Router, SmallestIndexWinsArbitration) {
  Router r(4, 4, 1, RouterMode::kArbitrate);
  r.push(0, flit(30));
  r.push(1, flit(10));
  r.push(2, flit(20));
  const auto out = r.step(true);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->index, 10u);
  r.commit();
  EXPECT_EQ(r.stats().flits_forwarded, 1u);
  EXPECT_EQ(r.stats().arbitration_conflicts, 1u);
}

TEST(Router, LosersWaitInOrder) {
  Router r(4, 4, 1, RouterMode::kArbitrate);
  r.push(0, flit(3));
  r.push(1, flit(1));
  r.push(2, flit(2));
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 3; ++i) {
    const auto out = r.step(true);
    ASSERT_TRUE(out.has_value());
    order.push_back(out->index);
    r.commit();
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.idle());
}

TEST(Router, StallsWithoutParentCredit) {
  Router r(4, 4, 1, RouterMode::kArbitrate);
  r.push(0, flit(5));
  const auto out = r.step(false);
  EXPECT_FALSE(out.has_value());
  r.commit();
  EXPECT_EQ(r.stats().credit_stalls, 1u);
  EXPECT_FALSE(r.idle());  // flit still buffered
}

TEST(Router, CreditProtocolLimitsOccupancy) {
  // Credit latency 2: a freed slot is invisible to the child for one
  // full cycle after the pop.
  Router r(4, 2, 2, RouterMode::kArbitrate);
  EXPECT_TRUE(r.can_accept(0));
  r.push(0, flit(1));
  EXPECT_TRUE(r.can_accept(0));
  r.push(0, flit(2));
  EXPECT_FALSE(r.can_accept(0));  // depth 2 reached
  const auto out = r.step(true);
  ASSERT_TRUE(out.has_value());
  r.commit();
  EXPECT_FALSE(r.can_accept(0));  // credit still in flight
  r.step(true);
  r.commit();
  EXPECT_TRUE(r.can_accept(0));  // credit arrived
}

TEST(Router, OverflowPushThrows) {
  Router r(2, 1, 1, RouterMode::kArbitrate);
  r.push(0, flit(1));
  EXPECT_THROW(r.push(0, flit(2)), InvariantError);
}

TEST(Router, AccumulateSumsMatchingRows) {
  Router r(4, 4, 1, RouterMode::kAccumulate);
  for (std::size_t port = 0; port < 4; ++port)
    r.push(port, flit(0, static_cast<std::int64_t>(port + 1)));
  const auto out = r.step(true);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->index, 0u);
  EXPECT_EQ(out->payload, 1 + 2 + 3 + 4);
  r.commit();
  EXPECT_EQ(r.stats().acc_operations, 3u);
  EXPECT_TRUE(r.idle());
}

TEST(Router, AccumulateWaitsForLaggards) {
  Router r(4, 4, 1, RouterMode::kAccumulate);
  r.push(0, flit(0, 5));
  r.push(1, flit(0, 6));
  r.push(2, flit(0, 7));
  // Port 3 hasn't delivered: the ACC must not fire.
  EXPECT_FALSE(r.step(true).has_value());
  r.commit();
  r.push(3, flit(0, 8));
  const auto out = r.step(true);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, 26);
}

TEST(Router, AccumulateRejectsMismatchedRows) {
  // Every child sends each row once, in row order, so a full set of
  // heads always carries one row; any other traffic is a protocol
  // violation, not a partial reduction.
  Router r(4, 4, 1, RouterMode::kAccumulate);
  r.push(0, flit(0, 5));
  r.push(1, flit(0, 6));
  r.push(2, flit(0, 7));
  r.push(3, flit(1, 8));
  EXPECT_THROW(r.step(true), InvariantError);
}

TEST(Router, AccumulateSequenceOfRows) {
  Router r(2, 4, 1, RouterMode::kAccumulate);
  for (std::uint32_t row = 0; row < 3; ++row) {
    r.push(0, flit(row, 10 * (row + 1)));
    r.push(1, flit(row, 1));
  }
  for (std::uint32_t row = 0; row < 3; ++row) {
    const auto out = r.step(true);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->index, row);
    EXPECT_EQ(out->payload, 10 * (row + 1) + 1);
    r.commit();
  }
}

// ---- H-tree ----

ArchParams small_params() {
  ArchParams p;
  p.num_pes = 16;
  p.router_levels = 2;
  return p;
}

TEST(HTree, DeliversEveryInjectedFlitExactlyOnce) {
  const ArchParams params = small_params();
  UpwardTree tree(params, RouterMode::kArbitrate);
  Rng rng{1};

  std::vector<std::vector<Flit>> pending(params.num_pes);
  std::multiset<std::uint32_t> expected;
  for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
    const std::size_t n = rng.uniform_index(9);
    for (std::size_t k = 0; k < n; ++k) {
      const auto idx =
          static_cast<std::uint32_t>(pe + k * params.num_pes);
      pending[pe].push_back(flit(idx, 1, static_cast<std::uint16_t>(pe)));
      expected.insert(idx);
    }
  }

  std::multiset<std::uint32_t> received;
  std::uint64_t guard = 0;
  while (received.size() < expected.size()) {
    ASSERT_LT(++guard, 100000u) << "tree deadlocked";
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      if (!pending[pe].empty() && tree.can_inject(pe)) {
        tree.inject(pe, pending[pe].front());
        pending[pe].erase(pending[pe].begin());
      }
    }
    if (const auto out = tree.step(true)) received.insert(out->index);
  }
  EXPECT_EQ(received, expected);
  EXPECT_TRUE(tree.idle());
}

TEST(HTree, PerSourceOrderPreservedGlobalOrderNot) {
  // The paper's out-of-order property: flits from one PE keep their
  // relative order (FIFO buffers), but the global sequence interleaves.
  const ArchParams params = small_params();
  UpwardTree tree(params, RouterMode::kArbitrate);

  std::vector<std::vector<Flit>> pending(params.num_pes);
  for (std::size_t pe = 0; pe < params.num_pes; ++pe)
    for (std::size_t k = 0; k < 4; ++k)
      pending[pe].push_back(
          flit(static_cast<std::uint32_t>(pe + k * params.num_pes), 1,
               static_cast<std::uint16_t>(pe)));

  std::map<std::uint16_t, std::vector<std::uint32_t>> per_source;
  std::size_t total = 0;
  std::uint64_t guard = 0;
  while (total < params.num_pes * 4) {
    ASSERT_LT(++guard, 100000u);
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      if (!pending[pe].empty() && tree.can_inject(pe)) {
        tree.inject(pe, pending[pe].front());
        pending[pe].erase(pending[pe].begin());
      }
    }
    if (const auto out = tree.step(true)) {
      per_source[out->source].push_back(out->index);
      ++total;
    }
  }
  for (const auto& [source, indices] : per_source) {
    EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()))
        << "PE " << source << " flits reordered";
  }
}

TEST(HTree, BufferedThroughputNearOnePerCycle) {
  const ArchParams params = ArchParams::paper();
  UpwardTree tree(params, RouterMode::kArbitrate);
  const std::size_t per_pe = 32;

  std::vector<std::size_t> cursor(params.num_pes, 0);
  std::size_t received = 0;
  std::uint64_t cycles = 0;
  while (received < params.num_pes * per_pe) {
    ++cycles;
    ASSERT_LT(cycles, 1000000u);
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      if (cursor[pe] < per_pe && tree.can_inject(pe)) {
        tree.inject(pe, flit(static_cast<std::uint32_t>(
                            pe + cursor[pe] * params.num_pes)));
        ++cursor[pe];
      }
    }
    if (tree.step(true)) ++received;
  }
  const double throughput =
      static_cast<double>(params.num_pes * per_pe) /
      static_cast<double>(cycles);
  EXPECT_GT(throughput, 0.95);  // Section V.B: one activation per cycle
}

TEST(HTree, UnbufferedThroughputDegrades) {
  ArchParams params = ArchParams::paper();
  const std::size_t per_pe = 16;

  const auto measure = [&](FlowControl fc) {
    params.flow_control = fc;
    UpwardTree tree(params, RouterMode::kArbitrate);
    std::vector<std::size_t> cursor(params.num_pes, 0);
    std::size_t received = 0;
    std::uint64_t cycles = 0;
    while (received < params.num_pes * per_pe) {
      ++cycles;
      for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
        if (cursor[pe] < per_pe && tree.can_inject(pe)) {
          tree.inject(pe, flit(static_cast<std::uint32_t>(
                              pe + cursor[pe] * params.num_pes)));
          ++cursor[pe];
        }
      }
      if (tree.step(true)) ++received;
    }
    return cycles;
  };

  EXPECT_GT(measure(FlowControl::kUnbuffered),
            measure(FlowControl::kPacketBufferCredit));
}

TEST(HTree, ReductionComputesExactSums) {
  const ArchParams params = small_params();
  UpwardTree tree(params, RouterMode::kAccumulate);
  const std::size_t rank = 5;
  Rng rng{2};

  // Every PE contributes `rank` rows; expected sum per row is known.
  std::vector<std::int64_t> expected(rank, 0);
  std::vector<std::vector<Flit>> pending(params.num_pes);
  for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
    for (std::uint32_t row = 0; row < rank; ++row) {
      const auto value =
          static_cast<std::int64_t>(rng.uniform_index(1000)) - 500;
      pending[pe].push_back(
          flit(row, value, static_cast<std::uint16_t>(pe)));
      expected[row] += value;
    }
  }

  std::vector<std::int64_t> sums;
  std::uint64_t guard = 0;
  while (sums.size() < rank) {
    ASSERT_LT(++guard, 100000u) << "reduction deadlocked";
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      if (!pending[pe].empty() && tree.can_inject(pe)) {
        tree.inject(pe, pending[pe].front());
        pending[pe].erase(pending[pe].begin());
      }
    }
    if (const auto out = tree.step(true)) {
      EXPECT_EQ(out->index, sums.size());  // rows arrive in order
      sums.push_back(out->payload);
    }
  }
  EXPECT_EQ(sums, expected);
}

// htree_flight_cycles is the analytic engine's tree term; it must match
// what an idle UpwardTree plus the simulator's BroadcastChannel do.
// Every PE injects one flit in cycle 1 (one reduction row in accumulate
// mode, racing activations in arbitrate mode); the first delivery to
// the PEs must come exactly that many cycles later, at every shape.
TEST(HTree, FlightCyclesMatchTreeAndBroadcast) {
  for (const std::size_t radix : {2u, 4u, 8u}) {
    for (std::size_t levels = 1; levels <= 5; ++levels) {
      ArchParams params;
      params.router_radix = radix;
      params.router_levels = levels;
      params.num_pes = 1;
      for (std::size_t l = 0; l < levels; ++l) params.num_pes *= radix;
      if (params.num_pes > 1024) continue;
      for (const RouterMode mode :
           {RouterMode::kAccumulate, RouterMode::kArbitrate}) {
        UpwardTree tree(params, mode);
        BroadcastChannel broadcast(params.router_levels);
        for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
          const auto row = static_cast<std::uint32_t>(
              mode == RouterMode::kAccumulate ? 0 : pe);
          tree.inject(pe, flit(row, 1, static_cast<std::uint16_t>(pe)));
        }
        std::uint64_t delivered_at = 0;
        for (std::uint64_t cycle = 1; cycle < 100 && !delivered_at;
             ++cycle) {
          if (const auto out = tree.step(true)) broadcast.send(*out);
          if (broadcast.step()) delivered_at = cycle;
        }
        EXPECT_EQ(delivered_at, 1 + htree_flight_cycles(params))
            << "radix " << radix << " levels " << levels << " mode "
            << (mode == RouterMode::kAccumulate ? "acc" : "arb");
      }
    }
  }
}

TEST(BroadcastChannel, FixedLatencyFifo) {
  BroadcastChannel ch(3);
  EXPECT_TRUE(ch.idle());
  ch.send(flit(7));
  EXPECT_FALSE(ch.idle());
  EXPECT_FALSE(ch.step().has_value());  // t=1
  EXPECT_FALSE(ch.step().has_value());  // t=2
  const auto out = ch.step();           // t=3
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->index, 7u);
  EXPECT_TRUE(ch.idle());
}

TEST(BroadcastChannel, BackToBackDeliveryOnePerCycle) {
  BroadcastChannel ch(2);
  ch.send(flit(1));
  ch.step();
  ch.send(flit(2));
  const auto a = ch.step();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->index, 1u);
  const auto b = ch.step();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->index, 2u);
}

}  // namespace
}  // namespace sparsenn
