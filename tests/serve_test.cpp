// Tests for the serving tier (src/serve/): work-conserving micro-batch
// close, admission-control shedding, drain-on-shutdown, mixed-arch
// routing, ownership of the registered networks —
// and the acceptance bar: a served result is bit-identical to a direct
// simulation of the same input on both engine backends. Batching only
// changes *when* an inference runs, never its arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "serve/frontend.hpp"
#include "serve/request_queue.hpp"
#include "sim/compiled_network.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::seeded_network;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// RequestQueue: batch close and admission control are deterministic at
// this level (no worker threads racing the clock).

RequestQueue<int>::Options queue_options(std::size_t capacity,
                                         std::size_t lane_depth,
                                         std::size_t max_batch) {
  RequestQueue<int>::Options o;
  o.capacity = capacity;
  o.max_lane_depth = lane_depth;
  o.max_batch = max_batch;
  return o;
}

TEST(RequestQueue, SizeTriggerClosesImmediately) {
  // A lane already holding max_batch requests closes as kSize, at
  // claim, with the requests in push order.
  RequestQueue<int> q(queue_options(64, 64, 4));
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(q.try_push(/*lane=*/7, int{i}), PushOutcome::kAccepted);

  const auto start = RequestQueue<int>::Clock::now();
  const auto batch = q.next_batch();
  const auto elapsed = RequestQueue<int>::Clock::now() - start;
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->close, BatchClose::kSize);
  EXPECT_EQ(batch->lane, 7u);
  ASSERT_EQ(batch->requests.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch->requests[i].item, i);
  EXPECT_LT(elapsed, 5s);  // closed at claim, without waiting
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, PartialBatchShipsAtClaim) {
  // Fewer than max_batch requests queued: a free consumer takes them
  // at once as a kPartial batch instead of waiting for the lane to
  // fill — first a lone request, then the two that arrive next.
  RequestQueue<int> q(queue_options(64, 64, /*max_batch=*/8));
  ASSERT_EQ(q.try_push(0, 1), PushOutcome::kAccepted);
  const auto start = RequestQueue<int>::Clock::now();
  const auto lone = q.next_batch();
  ASSERT_TRUE(lone.has_value());
  EXPECT_EQ(lone->close, BatchClose::kPartial);
  ASSERT_EQ(lone->requests.size(), 1u);
  EXPECT_EQ(lone->requests[0].item, 1);

  ASSERT_EQ(q.try_push(0, 2), PushOutcome::kAccepted);
  ASSERT_EQ(q.try_push(0, 3), PushOutcome::kAccepted);
  const auto pair = q.next_batch();
  const auto elapsed = RequestQueue<int>::Clock::now() - start;
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->close, BatchClose::kPartial);
  ASSERT_EQ(pair->requests.size(), 2u);
  EXPECT_EQ(pair->requests[0].item, 2);
  EXPECT_EQ(pair->requests[1].item, 3);
  EXPECT_GE(pair->closed_at, pair->requests[1].enqueued);
  EXPECT_LT(elapsed, 5s);  // neither claim waited for the lane to fill
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, ShedsOnGlobalAndPerLaneBounds) {
  RequestQueue<int> q(queue_options(/*capacity=*/3, /*lane_depth=*/2,
                                    /*max_batch=*/8));
  EXPECT_EQ(q.try_push(0, 0), PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(0, 1), PushOutcome::kAccepted);
  // Lane 0 is at its depth bound; the queue still has room.
  EXPECT_EQ(q.try_push(0, 2), PushOutcome::kShedLaneFull);
  EXPECT_EQ(q.try_push(1, 3), PushOutcome::kAccepted);
  // Global capacity reached: every lane sheds, even fresh ones.
  EXPECT_EQ(q.try_push(2, 4), PushOutcome::kShedQueueFull);
  EXPECT_EQ(q.accepted(), 3u);
  EXPECT_EQ(q.shed_lane_full(), 1u);
  EXPECT_EQ(q.shed_queue_full(), 1u);
  EXPECT_EQ(q.lane_depth(0), 2u);
}

TEST(RequestQueue, ShutdownDrainsThenSignalsExit) {
  RequestQueue<int> q(queue_options(64, 64, /*max_batch=*/2));
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(q.try_push(/*lane=*/i % 2, int{i}), PushOutcome::kAccepted);
  q.shutdown();
  EXPECT_EQ(q.try_push(0, 99), PushOutcome::kClosed);

  std::size_t drained = 0;
  while (const auto batch = q.next_batch()) {
    EXPECT_LE(batch->requests.size(), 2u);
    drained += batch->requests.size();
  }
  EXPECT_EQ(drained, 5u);
  EXPECT_EQ(q.next_batch(), std::nullopt);  // stays terminal
}

TEST(RequestQueue, ManyProducersManyConsumersLoseNothing) {
  // The MPMC contract under the sanitizer jobs: every accepted item
  // comes out in exactly one batch.
  RequestQueue<int> q(queue_options(4096, 4096, 4));
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_EQ(q.try_push(/*lane=*/p % 3, p * kPerProducer + i),
                  PushOutcome::kAccepted);
    });
  }
  std::vector<std::thread> consumers;
  // Local struct (not two locals) so the GUARDED_BY contract between
  // the mutex and the vector is statically checked under clang TSA.
  struct Seen {
    sync::Mutex mutex;
    std::vector<int> items SPARSENN_GUARDED_BY(mutex);
  } seen;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (const auto batch = q.next_batch()) {
        const sync::MutexLock lock(seen.mutex);
        for (const auto& request : batch->requests)
          seen.items.push_back(request.item);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.shutdown();
  for (auto& t : consumers) t.join();

  const sync::MutexLock lock(seen.mutex);
  ASSERT_EQ(seen.items.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.items.begin(), seen.items.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    ASSERT_EQ(seen.items[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// ServingFrontend: end-to-end over real inferences.

ServingOptions serving_options(EngineKind kind) {
  ServingOptions o;
  o.num_workers = 2;
  o.max_batch = 4;
  o.engine = kind;
  return o;
}

/// Arms `storm` to stall every batch a worker claims by `delay_us` at
/// the serve.worker.batch point, before the batch is touched: requests
/// submitted meanwhile stay queued behind the stalled workers.
void stall_every_batch(fault::ScopedFaultStorm& storm,
                       std::uint64_t delay_us) {
  storm.add({.point = "serve.worker.batch",
             .action = fault::FaultAction::kDelay, .probability = 1.0,
             .delay_us = delay_us});
}

/// Waits until `batches` claimed batches have entered the stall armed
/// by stall_every_batch (each stalled worker holds one). False after
/// 10 s.
bool await_stalled_batches(std::uint64_t batches) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    const auto points = fault::snapshot();
    const auto it = points.find("serve.worker.batch");
    if (it != points.end() && it->second.delays >= batches) return true;
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(100us);
  }
}

class ServeEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ServeEngines, ServedResultsBitIdenticalToDirectSimulation) {
  // The acceptance bar: for the same (network, arch, input, uv), a
  // result that travelled queue → micro-batch → worker engine → arena
  // equals a direct fully-validated simulation, bitwise, on both
  // backends and in both uv modes.
  const Fixture f = make_batch_fixture(10, /*seed=*/51);
  ServingFrontend frontend(serving_options(GetParam()));
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < f.data.size(); ++i)
    for (const bool uv : {true, false})
      futures.push_back(frontend.submit(model, f.data.image(i), uv));

  const auto engine = make_engine(GetParam(), tiny_arch());
  const CompiledNetwork on(f.network, tiny_arch(), /*use_predictor=*/true);
  const CompiledNetwork off(f.network, tiny_arch(), /*use_predictor=*/false);
  std::size_t k = 0;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    for (const bool uv : {true, false}) {
      const ServeResult served = futures[k++].get();
      ASSERT_EQ(served.status, ServeStatus::kOk);
      EXPECT_EQ(served.model, model);
      EXPECT_EQ(served.use_predictor, uv);
      EXPECT_GE(served.batch_size, 1u);
      EXPECT_GE(served.total_us, served.exec_us);
      const SimResult expected = engine->run(uv ? on : off, f.data.image(i),
                                             ValidationMode::kFull);
      EXPECT_EQ(served.result, expected) << "input " << i << " uv " << uv;
    }
  }

  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.size_closes + stats.timeout_closes + stats.drain_closes,
            stats.batches);
  // Two lanes (uv on/off) → exactly two compiles, everything else hits.
  EXPECT_EQ(stats.zoo_compiles, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServeEngines,
                         ::testing::Values(EngineKind::kCycle,
                                           EngineKind::kAnalytic));

TEST(ServingFrontend, OwnsTheNetworksItServes) {
  // The frontend keeps its own copy of each registered network, so the
  // caller may destroy its object, or change its threshold, right after
  // register_model. Thirteen models in both uv modes against the zoo's
  // eight slots: the traffic evicts and recompiles images of networks
  // whose caller-side objects are gone.
  constexpr std::size_t kDestroyed = 12;
  constexpr std::size_t kModels = kDestroyed + 1;  // + one re-thresholded
  const Fixture f = make_batch_fixture(8, /*seed=*/95);
  ServingFrontend frontend(serving_options(EngineKind::kAnalytic));
  const auto engine = make_engine(EngineKind::kAnalytic, tiny_arch());
  const auto direct = [&](const QuantizedNetwork& network, std::size_t i,
                          bool uv) {
    return engine->run(CompiledNetwork(network, tiny_arch(), uv),
                       f.data.image(i));
  };

  // expected[m][2·i + uv]: a direct run of a copy of model m taken at
  // registration. The copies go with the loop body, so only the
  // frontend holds the destroyed models' layers afterwards.
  std::vector<std::vector<SimResult>> expected(kModels);
  std::vector<std::size_t> handles;
  std::unique_ptr<QuantizedNetwork> kept;
  for (std::size_t m = 0; m < kModels; ++m) {
    Rng rng{200 + m};
    auto network = std::make_unique<QuantizedNetwork>(seeded_network(rng));
    handles.push_back(frontend.register_model(*network, tiny_arch()));
    const QuantizedNetwork at_registration = *network;
    for (std::size_t i = 0; i < f.data.size(); ++i)
      for (const bool uv : {false, true})
        expected[m].push_back(direct(at_registration, i, uv));
    if (m < kDestroyed) {
      network.reset();
    } else {
      kept = std::move(network);
    }
  }
  kept->set_prediction_threshold(0.35);
  bool threshold_matters = false;  // else the last model proves nothing
  for (std::size_t i = 0; i < f.data.size(); ++i)
    threshold_matters = threshold_matters ||
                        direct(*kept, i, true) != expected.back()[2 * i + 1];
  EXPECT_TRUE(threshold_matters);

  struct Sent {
    std::size_t model = 0;
    std::size_t input = 0;
    bool uv = true;
    std::future<ServeResult> result;
  };
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 64;
  std::vector<std::vector<Sent>> sent(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng{300 + c};
      for (std::size_t r = 0; r < kPerClient; ++r) {
        Sent s;
        s.model = rng.uniform_index(kModels);
        s.input = rng.uniform_index(f.data.size());
        s.uv = rng.bernoulli(0.5);
        s.result =
            frontend.submit(handles[s.model], f.data.image(s.input), s.uv);
        sent[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (std::vector<Sent>& client : sent) {
    for (Sent& s : client) {
      const ServeResult served = s.result.get();
      ASSERT_EQ(served.status, ServeStatus::kOk) << served.error;
      const std::size_t k = 2 * s.input + (s.uv ? 1 : 0);
      EXPECT_EQ(served.result, expected[s.model][k])
          << "model " << s.model << " input " << s.input << " uv " << s.uv;
    }
  }
  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  constexpr std::uint64_t kTotal = kClients * kPerClient;
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  // More compiles than slots: images were evicted and recompiled.
  EXPECT_GT(stats.zoo_compiles, ModelZoo::kDefaultCapacity);
}

TEST(ServingFrontend, MixedArchConfigsServeSideBySide) {
  // One arch-keyed zoo: one process, one frontend, two ArchParams.
  // Each model's results must match a direct simulation under ITS
  // arch.
  const Fixture f = make_batch_fixture(4, /*seed=*/53);
  ArchParams wide = tiny_arch();
  wide.act_queue_depth = 4;

  ServingFrontend frontend(serving_options(EngineKind::kAnalytic));
  const std::size_t m_tiny = frontend.register_model(f.network, tiny_arch());
  const std::size_t m_wide = frontend.register_model(f.network, wide);

  std::vector<std::future<ServeResult>> tiny_futs, wide_futs;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    tiny_futs.push_back(frontend.submit(m_tiny, f.data.image(i)));
    wide_futs.push_back(frontend.submit(m_wide, f.data.image(i)));
  }

  const auto tiny_engine = make_engine(EngineKind::kAnalytic, tiny_arch());
  const auto wide_engine = make_engine(EngineKind::kAnalytic, wide);
  const CompiledNetwork tiny_img(f.network, tiny_arch(), true);
  const CompiledNetwork wide_img(f.network, wide, true);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_EQ(tiny_futs[i].get().result,
              tiny_engine->run(tiny_img, f.data.image(i)));
    EXPECT_EQ(wide_futs[i].get().result,
              wide_engine->run(wide_img, f.data.image(i)));
  }
  // One compile per (arch, uv-on) pair; no cross-arch aliasing.
  EXPECT_EQ(frontend.stats().zoo_compiles, 2u);
}

TEST(ServingFrontend, ShedsUnderOverloadInsteadOfQueueingUnboundedly) {
  // Tiny queue + a worker stalled on its first batch for far longer
  // than the submit burst takes: almost everything past the capacity
  // must shed, immediately, with a diagnosable status — and every
  // accepted request must still complete.
  const Fixture f = make_batch_fixture(1, /*seed=*/57);
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 64;  // never reached (capacity is smaller)
  options.queue_capacity = 4;
  options.max_queued_per_model = 4;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  constexpr std::size_t kBurst = 32;
  std::vector<std::future<ServeResult>> futures;
  {
    fault::ScopedFaultStorm storm(57);
    stall_every_batch(storm, 200000);  // 200ms: the burst below takes µs
    for (std::size_t i = 0; i < kBurst; ++i)
      futures.push_back(frontend.submit(model, f.data.image(0)));
  }  // disarmed: the batches after the stalled one run at once

  std::size_t ok = 0, shed = 0;
  for (auto& fut : futures) {
    const ServeResult r = fut.get();
    if (r.status == ServeStatus::kOk) {
      ++ok;
      EXPECT_FALSE(r.result.layers.empty());
    } else {
      ++shed;
      EXPECT_TRUE(r.status == ServeStatus::kShedQueueFull ||
                  r.status == ServeStatus::kShedModelBusy)
          << to_string(r.status);
      EXPECT_TRUE(r.result.layers.empty());
      EXPECT_EQ(r.total_us, 0.0);  // refused at admission, zero residence
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(shed, kBurst - 2 * options.queue_capacity);  // most of the burst
  EXPECT_GE(ok, options.queue_capacity);  // the admitted head completed

  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, kBurst);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_GT(stats.shed_rate(), 0.5);
}

TEST(ServingFrontend, ShutdownDrainsAcceptedWorkAndRefusesNewWork) {
  const Fixture f = make_batch_fixture(6, /*seed=*/59);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  // Requests are queued when we shut down: each of the two workers
  // stalls on a one-request batch, and the other four queue behind.
  std::vector<std::future<ServeResult>> futures;
  {
    fault::ScopedFaultStorm storm(59);
    stall_every_batch(storm, 200000);
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      futures.push_back(frontend.submit(model, f.data.image(i)));
      if (i < options.num_workers) {
        ASSERT_TRUE(await_stalled_batches(i + 1));
      }
    }
  }
  frontend.shutdown();  // drains; idempotent with the destructor

  for (auto& fut : futures) EXPECT_EQ(fut.get().status, ServeStatus::kOk);
  const ServeResult refused =
      frontend.submit(model, f.data.image(0)).get();
  EXPECT_EQ(refused.status, ServeStatus::kShutdown);
  EXPECT_EQ(frontend.stats().completed, f.data.size());
  EXPECT_GE(frontend.stats().drain_closes, 1u);
}

TEST(ServingFrontend, BatchSizeHistogramAccountsEveryBatch) {
  const Fixture f = make_batch_fixture(9, /*seed=*/61);
  ServingFrontend frontend(serving_options(EngineKind::kAnalytic));
  std::vector<std::future<ServeResult>> futures;
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  for (std::size_t i = 0; i < f.data.size(); ++i)
    futures.push_back(frontend.submit(model, f.data.image(i)));
  for (auto& fut : futures) ASSERT_EQ(fut.get().status, ServeStatus::kOk);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  ASSERT_EQ(stats.batch_size_counts.size(), frontend.options().max_batch);
  std::uint64_t histogram_batches = 0, histogram_requests = 0;
  for (std::size_t n = 0; n < stats.batch_size_counts.size(); ++n) {
    histogram_batches += stats.batch_size_counts[n];
    histogram_requests += stats.batch_size_counts[n] * (n + 1);
  }
  EXPECT_EQ(histogram_batches, stats.batches);
  EXPECT_EQ(histogram_requests, stats.completed);
  EXPECT_GT(stats.mean_batch_size(), 0.0);
}

TEST(ServingFrontend, DestructionWithQueuedWorkResolvesEveryFuture) {
  // Destroying the frontend while requests are still queued (the one
  // worker is stalled on the first, so the rest wait behind it) must
  // not break a single promise: the drain-close path either executes
  // or resolves each one, and get() never throws std::future_error.
  const Fixture f = make_batch_fixture(16, /*seed=*/67);
  std::vector<std::future<ServeResult>> futures;
  {
    ServingOptions options = serving_options(EngineKind::kAnalytic);
    options.num_workers = 1;
    options.max_batch = 16;
    ServingFrontend frontend(options);
    const std::size_t model =
        frontend.register_model(f.network, tiny_arch());
    fault::ScopedFaultStorm storm(67);
    stall_every_batch(storm, 50000);
    for (std::size_t i = 0; i < f.data.size() - 1; ++i) {
      futures.push_back(frontend.submit(model, f.data.image(i)));
      if (i == 0) {
        ASSERT_TRUE(await_stalled_batches(1));
      }
    }
    // The storm disarms, then the frontend is destroyed here with 14
    // requests parked in the queue behind the stalled one.
  }
  for (auto& fut : futures) {
    const ServeResult r = fut.get();  // must not throw
    EXPECT_TRUE(r.status == ServeStatus::kOk ||
                r.status == ServeStatus::kShutdown)
        << "unexpected status " << to_string(r.status);
  }
}

TEST(ServingFrontend, ExpiredDeadlineIsShedBeforeExecution) {
  // A request whose deadline has already passed when a worker claims
  // it resolves kDeadlineExceeded without touching the engine, and it
  // ships in a batch of its own instead of waiting for the lane to
  // fill.
  const Fixture f = make_batch_fixture(2, /*seed=*/59);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  options.num_workers = 1;
  options.max_batch = 8;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  SubmitOptions expired;
  expired.deadline_us = 1;  // expires before any worker can claim it
  const auto start = std::chrono::steady_clock::now();
  ServeResult r;
  {
    // A 2ms stall at batch entry guarantees the 1µs deadline has
    // passed by claim time.
    fault::ScopedFaultStorm storm(61);
    stall_every_batch(storm, 2000);
    r = frontend.submit(model, f.data.image(0), expired).get();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(r.result.layers.empty());
  EXPECT_LT(elapsed, 1s) << "the expired request waited for a full batch";
  // The shed result carries the request's identity and batch, but no
  // execution time: it never reached an engine.
  EXPECT_EQ(r.exec_us, 0.0);
  EXPECT_EQ(r.model, model);
  EXPECT_EQ(r.priority, expired.priority);
  EXPECT_EQ(r.use_predictor, expired.use_predictor);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_GE(r.total_us, r.queue_us);
  EXPECT_GT(r.total_us, 0.0);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.error.empty());

  // Deadline-free traffic on the same lane is untouched.
  SubmitOptions relaxed;
  EXPECT_EQ(frontend.submit(model, f.data.image(1), relaxed).get().status,
            ServeStatus::kOk);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
  // Two one-request batches: the shed request rode its own batch.
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 1.0);
}

TEST(ServingFrontend, LiveStatsNeverShowMoreResolvedThanSubmitted) {
  // Regression (found by the thread-safety annotation pass): submit()
  // used to count `submitted` only *after* queue_.try_push, so a fast
  // worker could complete — and count — the request first, and a
  // concurrent stats() snapshot transiently showed
  // completed + shed + failed > submitted. The count now lands before
  // the push; every live snapshot must satisfy the ledger inequality.
  const Fixture f = make_batch_fixture(8, /*seed=*/91);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  std::atomic<bool> done{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const ServingStats s = frontend.stats();
      if (s.completed + s.shed + s.failed > s.submitted)
        violated.store(true, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kRequests = 600;
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(kRequests);
  for (std::size_t r = 0; r < kRequests; ++r)
    futures.push_back(
        frontend.submit(model, f.data.image(r % f.data.size())));
  for (auto& future : futures) (void)future.get();
  done.store(true, std::memory_order_relaxed);
  sampler.join();

  EXPECT_FALSE(violated.load())
      << "a stats() snapshot showed completed + shed + failed > submitted";
  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed + stats.shed + stats.failed, kRequests);
}

}  // namespace
}  // namespace sparsenn
