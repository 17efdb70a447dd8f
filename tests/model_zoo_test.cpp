// Tests for core/model_zoo.hpp: the arch-keyed, thread-safe LRU of
// compiled images behind the serving path. Pinned properties: the
// capacity bound holds, recency protects hot networks, an evicted
// network recompiles to bit-identical results, a threshold change
// makes a new version that compiles beside the old one, the arch is
// part of the key, and concurrent fetches compile each key once.

#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/model_zoo.hpp"
#include "sim/accelerator.hpp"
#include "sim/engine.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::seeded_network;
using test_fixtures::tiny_arch;

QuantizedNetwork network_with_seed(std::uint64_t seed) {
  Rng rng{seed};
  return seeded_network(rng);
}

std::vector<float> test_input(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<float> input(24, 0.0f);
  for (float& v : input)
    if (!rng.bernoulli(0.4))
      v = static_cast<float>(rng.uniform(0.0, 1.0));
  return input;
}

TEST(ModelZoo, RejectsZeroCapacity) {
  EXPECT_THROW(ModelZoo(0), std::invalid_argument);
}

TEST(ModelZoo, CapacityBoundRespected) {
  ModelZoo zoo(/*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const QuantizedNetwork c = network_with_seed(3);

  (void)zoo.get(a, tiny_arch(), true);
  (void)zoo.get(b, tiny_arch(), true);
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(zoo.eviction_count(), 0u);

  (void)zoo.get(c, tiny_arch(), true);  // full → evicts the LRU entry (a)
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 3u);
  EXPECT_EQ(zoo.eviction_count(), 1u);
  EXPECT_FALSE(zoo.contains(a, tiny_arch(), true));
  EXPECT_TRUE(zoo.contains(b, tiny_arch(), true));
  EXPECT_TRUE(zoo.contains(c, tiny_arch(), true));
}

TEST(ModelZoo, HotNetworkSurvivesEviction) {
  ModelZoo zoo(/*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const QuantizedNetwork c = network_with_seed(3);

  (void)zoo.get(a, tiny_arch(), true);
  (void)zoo.get(b, tiny_arch(), true);
  (void)zoo.get(a, tiny_arch(), true);  // touch: a becomes most-recent
  EXPECT_EQ(zoo.hit_count(), 1u);

  (void)zoo.get(c, tiny_arch(), true);  // evicts b, the least recently used
  EXPECT_TRUE(zoo.contains(a, tiny_arch(), true));
  EXPECT_FALSE(zoo.contains(b, tiny_arch(), true));
  EXPECT_TRUE(zoo.contains(c, tiny_arch(), true));

  // The survivor is still a hit — no recompile for the hot network.
  (void)zoo.get(a, tiny_arch(), true);
  EXPECT_EQ(zoo.compile_count(), 3u);
  EXPECT_EQ(zoo.hit_count(), 2u);
}

TEST(ModelZoo, EvictedNetworkRecompilesIdentically) {
  ModelZoo zoo(/*capacity=*/1);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const std::vector<float> input = test_input(9);

  AcceleratorSim sim(tiny_arch());
  const SimResult before = sim.run(*zoo.get(a, tiny_arch(), true), input);

  (void)zoo.get(b, tiny_arch(), true);  // capacity 1 → evicts a's image
  EXPECT_FALSE(zoo.contains(a, tiny_arch(), true));

  const SimResult after = sim.run(*zoo.get(a, tiny_arch(), true), input);
  EXPECT_EQ(zoo.compile_count(), 3u);  // a, b, a again
  // Images are pure functions of (network state, arch, uv): the
  // recompiled image reproduces cycles, events and activations
  // bit-for-bit.
  EXPECT_EQ(before, after);
}

TEST(ModelZoo, ThresholdChangeCompilesANewVersionBesideTheOld) {
  ModelZoo zoo(/*capacity=*/4);
  QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);

  (void)zoo.get(a, tiny_arch(), true);
  (void)zoo.get(a, tiny_arch(), false);
  (void)zoo.get(b, tiny_arch(), true);
  EXPECT_EQ(zoo.size(), 3u);
  EXPECT_EQ(zoo.compile_count(), 3u);

  const QuantizedNetwork old_a = a;
  a.set_prediction_threshold(0.1);  // a new version for `a` only
  EXPECT_FALSE(zoo.contains(a, tiny_arch(), true));
  EXPECT_FALSE(zoo.contains(a, tiny_arch(), false));
  EXPECT_TRUE(zoo.contains(old_a, tiny_arch(), true));
  EXPECT_TRUE(zoo.contains(b, tiny_arch(), true));

  // Fetching the new version compiles; the old version's images stay
  // until evicted or invalidated, and b stays a pure hit.
  (void)zoo.get(a, tiny_arch(), true);
  EXPECT_EQ(zoo.compile_count(), 4u);
  EXPECT_EQ(zoo.size(), 4u);
  const std::uint64_t hits = zoo.hit_count();
  (void)zoo.get(b, tiny_arch(), true);
  EXPECT_EQ(zoo.hit_count(), hits + 1);
  EXPECT_EQ(zoo.compile_count(), 4u);

  EXPECT_EQ(zoo.invalidate(old_a), 2u);
  EXPECT_EQ(zoo.size(), 2u);  // new a(uv_on) + b(uv_on)
  EXPECT_TRUE(zoo.contains(a, tiny_arch(), true));
}

TEST(ModelZoo, BothUvModesCoexistForOneNetwork) {
  ModelZoo zoo(/*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);

  const std::shared_ptr<const CompiledNetwork> on =
      zoo.get(a, tiny_arch(), true);
  const std::shared_ptr<const CompiledNetwork> off =
      zoo.get(a, tiny_arch(), false);
  EXPECT_TRUE(on->use_predictor());
  EXPECT_FALSE(off->use_predictor());
  EXPECT_EQ(zoo.size(), 2u);

  (void)zoo.get(a, tiny_arch(), true);
  (void)zoo.get(a, tiny_arch(), false);
  EXPECT_EQ(zoo.compile_count(), 2u);  // both further gets were hits
  EXPECT_EQ(zoo.hit_count(), 2u);
}

TEST(ModelZoo, PinnedImageSurvivesEvictionInFlight) {
  ModelZoo zoo(/*capacity=*/1);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const std::vector<float> input = test_input(9);

  AcceleratorSim sim(tiny_arch());
  const std::shared_ptr<const CompiledNetwork> pinned =
      zoo.get(a, tiny_arch(), true);
  const SimResult before = sim.run(*pinned, input);

  // Eviction (capacity 1) AND a full invalidate while the image is
  // still held "in flight": the pin keeps it alive and bit-exact.
  (void)zoo.get(b, tiny_arch(), true);
  zoo.invalidate();
  EXPECT_FALSE(zoo.contains(a, tiny_arch(), true));
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_EQ(sim.run(*pinned, input), before);

  // The recompile-after-evict property still holds alongside pinning.
  EXPECT_EQ(sim.run(*zoo.get(a, tiny_arch(), true), input), before);
}

TEST(ModelZoo, KeysImagesOnTheArch) {
  ModelZoo zoo;
  const QuantizedNetwork a = network_with_seed(1);

  const ArchParams small = tiny_arch();
  ArchParams deeper = tiny_arch();
  deeper.act_queue_depth = 4;  // distinct config → distinct image
  ASSERT_NE(small, deeper);

  const auto img_small = zoo.get(a, small, true);
  const auto img_deeper = zoo.get(a, deeper, true);
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(img_small->params().act_queue_depth, 8u);
  EXPECT_EQ(img_deeper->params().act_queue_depth, 4u);

  // Same (arch, network, uv) again: a hit on the right image.
  EXPECT_EQ(zoo.get(a, small, true), img_small);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(zoo.hit_count(), 1u);

  // Targeted invalidation sweeps the network out on every arch.
  EXPECT_EQ(zoo.invalidate(a), 2u);
  (void)zoo.get(a, small, true);
  EXPECT_EQ(zoo.compile_count(), 3u);
}

TEST(ModelZoo, InvalidArchLeavesAFullZooIntact) {
  ModelZoo zoo(/*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const auto img_a = zoo.get(a, tiny_arch(), true);
  const auto img_b = zoo.get(b, tiny_arch(), true);

  ArchParams bad = tiny_arch();
  bad.router_levels = 3;  // 4^3 != 16 PEs
  EXPECT_THROW((void)zoo.get(a, bad, true), std::invalid_argument);

  // Validation ran before eviction and before the compile counter.
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(zoo.eviction_count(), 0u);
  EXPECT_EQ(zoo.get(a, tiny_arch(), true), img_a);
  EXPECT_EQ(zoo.get(b, tiny_arch(), true), img_b);
  EXPECT_EQ(zoo.compile_count(), 2u);
}

TEST(ModelZoo, ConcurrentFetchesCompileEachKeyOnce) {
  // 2 archs × 3 networks × both uv modes = 12 keys under a capacity of
  // 16, so nothing evicts. Every thread walks the same fixed list of
  // fetches, so all 8 race for each key's first compile.
  ModelZoo zoo(/*capacity=*/16);
  ArchParams deeper = tiny_arch();
  deeper.act_queue_depth = 4;
  const std::array<ArchParams, 2> archs{tiny_arch(), deeper};
  const std::array<QuantizedNetwork, 3> nets{
      network_with_seed(1), network_with_seed(2), network_with_seed(3)};
  constexpr std::size_t kKeys = 12;
  const auto fetch = [&](std::size_t key) {
    return zoo.get(nets[key / 4], archs[key / 2 % 2], key % 2 == 0);
  };

  std::vector<std::size_t> keys;
  for (std::size_t round = 0; round < 4; ++round)
    for (std::size_t key = 0; key < kKeys; ++key)
      keys.push_back((key * 5 + round) % kKeys);

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::shared_ptr<const CompiledNetwork>>> seen(
      kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const std::size_t key : keys) seen[t].push_back(fetch(key));
    });
  }
  for (std::thread& thread : pool) thread.join();

  EXPECT_EQ(zoo.compile_count(), kKeys);
  EXPECT_EQ(zoo.compile_count() + zoo.hit_count(), kThreads * keys.size());
  EXPECT_EQ(zoo.eviction_count(), 0u);
  // One image per key, whichever thread compiled it: at most one
  // compile per key.
  std::array<std::shared_ptr<const CompiledNetwork>, kKeys> images;
  for (std::size_t key = 0; key < kKeys; ++key) {
    images[key] = fetch(key);
    EXPECT_TRUE(images[key]->network().same_version(nets[key / 4]));
    EXPECT_EQ(images[key]->params(), archs[key / 2 % 2]);
    EXPECT_EQ(images[key]->use_predictor(), key % 2 == 0);
  }
  for (const auto& fetched : seen) {
    for (std::size_t i = 0; i < keys.size(); ++i)
      EXPECT_EQ(fetched[i], images[keys[i]]) << "fetch " << i;
  }
}

TEST(ModelZoo, TargetedInvalidateDropsOneNetwork) {
  ModelZoo zoo(/*capacity=*/4);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  (void)zoo.get(a, tiny_arch(), true);
  (void)zoo.get(a, tiny_arch(), false);
  (void)zoo.get(b, tiny_arch(), true);

  EXPECT_EQ(zoo.invalidate(a), 2u);
  EXPECT_EQ(zoo.size(), 1u);
  EXPECT_TRUE(zoo.contains(b, tiny_arch(), true));

  zoo.invalidate();
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_FALSE(zoo.contains(b, tiny_arch(), true));
}

TEST(ModelZoo, ServesBothBackendsTheSameImage) {
  ModelZoo zoo(/*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const std::vector<float> input = test_input(11);

  const std::shared_ptr<const CompiledNetwork> image =
      zoo.get(a, tiny_arch(), true);
  const std::unique_ptr<ExecutionEngine> cycle =
      make_engine(EngineKind::kCycle, tiny_arch());
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, tiny_arch());

  const SimResult exact = cycle->run(*image, input);
  const SimResult fast = analytic->run(*image, input);
  EXPECT_EQ(exact.output, fast.output);
  ASSERT_EQ(exact.layers.size(), fast.layers.size());
  for (std::size_t l = 0; l < exact.layers.size(); ++l)
    EXPECT_EQ(exact.layers[l].activations, fast.layers[l].activations);
  EXPECT_EQ(zoo.compile_count(), 1u);
}

}  // namespace
}  // namespace sparsenn
