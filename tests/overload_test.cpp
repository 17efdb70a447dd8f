// Overload-control tier: priority classes, per-model circuit
// breakers, and analytic-fallback degraded mode.
//
// The contract under test (serve/request_queue.hpp, serve/health.hpp,
// serve/frontend.hpp):
//
//   priorities — admission is watermarked per class (best-effort sheds
//     first as depth rises) and lanes are claimed oldest-highest-first,
//     so a best-effort flood degrades best-effort availability before
//     normal, and normal before high. Accounting holds per class:
//     submitted_by_class == completed + shed + failed per class.
//
//   circuit breakers — a model whose sliding-window failure rate
//     crosses the threshold sheds new submissions immediately
//     (kShedCircuitOpen, zero queue/worker time) until seeded
//     half-open probes prove recovery. Transitions are a pure function
//     of the schedule and the breaker seed: a single-worker run
//     replays the exact open/half-open/close sequence.
//
//   degraded mode — with a kCycle primary, a request whose deadline
//     budget is provably below the model's observed cycle-path latency
//     (or claimed during brownout) runs on the AnalyticEngine fallback
//     and is marked degraded; its functional output is bit-identical
//     to a direct AnalyticEngine run.
//
// The OverloadStorm test at the bottom is the acceptance scenario:
// a seeded 3-worker storm with a best-effort flood, a failing model,
// and brownout — high-priority traffic completes shed-free, the
// failing model's breaker opens and later recovers, degraded
// completions appear, and the accounting identities hold exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault.hpp"
#include "serve/frontend.hpp"
#include "serve/health.hpp"
#include "serve/request_queue.hpp"
#include "sim/compiled_network.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;
using namespace std::chrono_literals;

constexpr auto kNoDeadline = RequestQueue<int>::kNoDeadline;

/// A batch's items, in batch order.
std::vector<int> items_of(const RequestQueue<int>::Batch& batch) {
  std::vector<int> items;
  for (const auto& request : batch.requests) items.push_back(request.item);
  return items;
}

/// Polls the breaker state until it reaches `want` — the worker
/// records batch outcomes asynchronously, so state transitions land a
/// beat after the client observes the resolved future.
bool wait_for_state(const ServingFrontend& frontend, std::size_t model,
                    BreakerState want,
                    std::chrono::milliseconds timeout = 2000ms) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (frontend.breaker_state(model) != want) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ---------------------------------------------------------------------------
// PriorityQueue: claiming order and watermarked admission, directly on
// the queue.

TEST(PriorityQueue, HighestClassIsClaimedFirstDespiteAge) {
  RequestQueue<int>::Options o;
  o.capacity = 64;
  o.max_lane_depth = 64;
  o.max_batch = 3;  // == pushes per lane: every batch size-closes
  RequestQueue<int> q(o);

  // Best-effort arrives first (oldest), high last — claiming must
  // still serve high, then normal, then best-effort.
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(q.try_push(22, 100 + i, kNoDeadline, Priority::kBestEffort),
              PushOutcome::kAccepted);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(q.try_push(11, 200 + i, kNoDeadline, Priority::kNormal),
              PushOutcome::kAccepted);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(q.try_push(5, 300 + i, kNoDeadline, Priority::kHigh),
              PushOutcome::kAccepted);

  const auto high = q.next_batch();
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(high->lane, 5u);
  EXPECT_EQ(items_of(*high), (std::vector<int>{300, 301, 302}));

  const auto normal = q.next_batch();
  ASSERT_TRUE(normal.has_value());
  EXPECT_EQ(normal->lane, 11u);

  const auto best_effort = q.next_batch();
  ASSERT_TRUE(best_effort.has_value());
  EXPECT_EQ(best_effort->lane, 22u);
  EXPECT_EQ(items_of(*best_effort), (std::vector<int>{100, 101, 102}));

  q.shutdown();
  EXPECT_FALSE(q.next_batch().has_value());
}

TEST(PriorityQueue, GlobalWatermarksShedLowerClassesFirst) {
  RequestQueue<int>::Options o;
  o.capacity = 10;
  o.max_lane_depth = 100;  // lane bounds out of the way
  o.max_batch = 8;
  o.class_watermarks = {1.0, 0.8, 0.5};
  RequestQueue<int> q(o);

  // Best-effort admits only while total depth < 5.
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(q.try_push(3, i, kNoDeadline, Priority::kBestEffort),
              PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(3, 99, kNoDeadline, Priority::kBestEffort),
            PushOutcome::kShedQueueFull);
  // Normal keeps admitting up to depth 8 ...
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(q.try_push(2, i, kNoDeadline, Priority::kNormal),
              PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(2, 99, kNoDeadline, Priority::kNormal),
            PushOutcome::kShedQueueFull);
  // ... and high keeps the full capacity.
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(q.try_push(1, i, kNoDeadline, Priority::kHigh),
              PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(1, 99, kNoDeadline, Priority::kHigh),
            PushOutcome::kShedQueueFull);

  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.accepted(), 10u);
  EXPECT_EQ(q.shed_queue_full(), 3u);
  q.shutdown();
  while (q.next_batch().has_value()) {
  }
}

TEST(PriorityQueue, LaneWatermarksBoundPerLaneDepthPerClass) {
  RequestQueue<int>::Options o;
  o.capacity = 100;  // global bound out of the way
  o.max_lane_depth = 10;
  o.max_batch = 16;
  o.class_watermarks = {1.0, 0.8, 0.5};
  RequestQueue<int> q(o);

  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(q.try_push(3, i, kNoDeadline, Priority::kBestEffort),
              PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(3, 99, kNoDeadline, Priority::kBestEffort),
            PushOutcome::kShedLaneFull);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(q.try_push(2, i, kNoDeadline, Priority::kNormal),
              PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(2, 99, kNoDeadline, Priority::kNormal),
            PushOutcome::kShedLaneFull);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(q.try_push(1, i, kNoDeadline, Priority::kHigh),
              PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(1, 99, kNoDeadline, Priority::kHigh),
            PushOutcome::kShedLaneFull);

  EXPECT_EQ(q.shed_lane_full(), 3u);
  q.shutdown();
  while (q.next_batch().has_value()) {
  }
}

TEST(PriorityQueue, InvalidWatermarksAreRejected) {
  RequestQueue<int>::Options increasing;
  increasing.class_watermarks = {0.8, 1.0, 1.0};  // high below normal
  EXPECT_THROW(RequestQueue<int>{increasing}, std::invalid_argument);

  RequestQueue<int>::Options zero;
  zero.class_watermarks = {1.0, 1.0, 0.0};  // out of (0, 1]
  EXPECT_THROW(RequestQueue<int>{zero}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PriorityServing: the frontend echoes the class and accounts per
// class.

TEST(PriorityServing, PriorityIsEchoedAndAccountedPerClass) {
  const Fixture f = make_batch_fixture(6, /*seed=*/109);
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.engine = EngineKind::kAnalytic;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  const auto serve = [&](Priority priority) {
    SubmitOptions so;
    so.priority = priority;
    const ServeResult r =
        frontend.submit(model, f.data.image(0), so).get();
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.priority, priority);
    EXPECT_FALSE(r.degraded);
  };
  serve(Priority::kHigh);
  serve(Priority::kHigh);
  serve(Priority::kNormal);
  serve(Priority::kNormal);
  // The two-arg overload defaults to normal.
  const ServeResult d = frontend.submit(model, f.data.image(1)).get();
  EXPECT_EQ(d.status, ServeStatus::kOk);
  EXPECT_EQ(d.priority, Priority::kNormal);
  for (int i = 0; i < 4; ++i) serve(Priority::kBestEffort);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  const std::array<std::uint64_t, kNumPriorityClasses> want{2, 3, 4};
  EXPECT_EQ(stats.submitted_by_class, want);
  EXPECT_EQ(stats.completed_by_class, want);
  for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
    EXPECT_EQ(stats.shed_by_class[c], 0u);
    EXPECT_EQ(stats.failed_by_class[c], 0u);
    EXPECT_EQ(stats.submitted_by_class[c],
              stats.completed_by_class[c] + stats.shed_by_class[c] +
                  stats.failed_by_class[c]);
  }
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

// ---------------------------------------------------------------------------
// CircuitBreaker: lifecycle, per-model isolation, and determinism.

TEST(CircuitBreaker, HealthTransitionsAreAPureFunctionOfTheSeed) {
  // Unit-level determinism: drive ModelHealth with a fixed
  // admit/record script — no threads, no clock — and the transition
  // sequence (including the event stamps) must replay exactly.
  const auto run_script = [](std::uint64_t seed) {
    BreakerOptions bo;
    bo.window = 4;
    bo.min_samples = 2;
    bo.failure_threshold = 0.5;
    bo.open_sheds = 1;
    bo.probe_interval = 3;  // exercises the seeded probe hash
    bo.probe_successes = 2;
    bo.seed = seed;
    ModelHealth health(bo, /*pressure_window=*/16, /*track=*/true);

    const auto record_one = [&](bool ok, bool probe) {
      ModelHealth::BatchOutcome o;
      if (ok) {
        o.ok = 1;
        o.probe_ok = probe ? 1 : 0;
      } else {
        o.failed = 1;
        o.probe_failed = probe ? 1 : 0;
      }
      health.record(0, o);
    };

    // Two straight failures open the breaker (min_samples=2, 100%).
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(health.admit(0), ModelHealth::Admission::kAdmit);
      record_one(/*ok=*/false, /*probe=*/false);
    }
    EXPECT_EQ(health.state(0), BreakerState::kOpen);
    // Everything succeeds from here: shed through the open budget,
    // probe through half-open, close, then serve normally.
    for (int i = 0; i < 30; ++i) {
      const ModelHealth::Admission a = health.admit(0);
      if (a == ModelHealth::Admission::kShed) continue;
      record_one(/*ok=*/true, /*probe=*/a == ModelHealth::Admission::kProbe);
    }
    EXPECT_EQ(health.state(0), BreakerState::kClosed);
    return health.transitions();
  };

  const auto a = run_script(424242);
  const auto b = run_script(424242);
  EXPECT_EQ(a, b);  // full equality, event stamps included
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].to, BreakerState::kOpen);
  EXPECT_EQ(a[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(a[2].to, BreakerState::kClosed);
}

/// One full breaker lifecycle through the frontend on a single-worker
/// schedule; returns everything the determinism assertions compare.
struct BreakerScenario {
  std::vector<ServeStatus> statuses;
  std::vector<std::tuple<std::size_t, BreakerState, BreakerState>> moves;
  std::map<std::string, fault::PointStats> storm_snapshot;
  ServingStats stats;
};

BreakerScenario run_breaker_scenario(std::uint64_t storm_seed,
                                     const Fixture& f) {
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.engine = EngineKind::kAnalytic;
  options.breaker.window = 4;
  options.breaker.min_samples = 4;
  options.breaker.failure_threshold = 0.5;
  options.breaker.open_sheds = 2;
  options.breaker.probe_interval = 1;  // every half-open submission probes
  options.breaker.probe_successes = 1;
  options.breaker.seed = 99;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  BreakerScenario out;
  const auto serve_one = [&](std::size_t input) {
    const ServeResult r =
        frontend.submit(model, f.data.image(input)).get();
    out.statuses.push_back(r.status);
    // Circuit sheds never touch the queue or a worker: no batch, no
    // queue residence.
    if (r.status == ServeStatus::kShedCircuitOpen) {
      EXPECT_EQ(r.batch_size, 0u);
      EXPECT_EQ(r.queue_us, 0.0);
      EXPECT_TRUE(r.result.layers.empty());
    }
    return r;
  };

  {
    fault::ScopedFaultStorm storm(storm_seed);
    storm.add({.point = "engine.run", .action = fault::FaultAction::kThrow,
               .probability = 1.0, .message = "injected engine crash"});
    // Four failures fill the window and open the breaker.
    for (std::size_t i = 0; i < 4; ++i) serve_one(i % f.data.size());
    EXPECT_TRUE(wait_for_state(frontend, model, BreakerState::kOpen));
    // The open budget sheds instantly, no engine time spent.
    for (int i = 0; i < 2; ++i) serve_one(0);
    // Budget spent: the next submission is a half-open probe — it
    // still fails (the storm is armed), so the breaker re-opens.
    serve_one(0);
    EXPECT_TRUE(wait_for_state(frontend, model, BreakerState::kOpen));
    for (int i = 0; i < 2; ++i) serve_one(0);
    out.storm_snapshot = fault::snapshot();
  }
  // Storm disarmed: the next probe succeeds and closes the breaker.
  serve_one(0);
  EXPECT_TRUE(wait_for_state(frontend, model, BreakerState::kClosed));
  for (int i = 0; i < 2; ++i) serve_one(0);
  frontend.shutdown();

  for (const auto& t : frontend.breaker_transitions())
    out.moves.emplace_back(t.model, t.from, t.to);
  out.stats = frontend.stats();
  return out;
}

TEST(CircuitBreaker, OpensShedsProbesAndRecovers) {
  const Fixture f = make_batch_fixture(6, /*seed=*/113);
  const BreakerScenario s = run_breaker_scenario(/*storm_seed=*/51, f);

  const std::vector<ServeStatus> want{
      ServeStatus::kEngineError,     ServeStatus::kEngineError,
      ServeStatus::kEngineError,     ServeStatus::kEngineError,
      ServeStatus::kShedCircuitOpen, ServeStatus::kShedCircuitOpen,
      ServeStatus::kEngineError,  // failed half-open probe
      ServeStatus::kShedCircuitOpen, ServeStatus::kShedCircuitOpen,
      ServeStatus::kOk,  // successful probe closes the breaker
      ServeStatus::kOk,              ServeStatus::kOk,
  };
  EXPECT_EQ(s.statuses, want);

  using Move = std::tuple<std::size_t, BreakerState, BreakerState>;
  const std::vector<Move> moves{
      Move{0, BreakerState::kClosed, BreakerState::kOpen},
      Move{0, BreakerState::kOpen, BreakerState::kHalfOpen},
      Move{0, BreakerState::kHalfOpen, BreakerState::kOpen},
      Move{0, BreakerState::kOpen, BreakerState::kHalfOpen},
      Move{0, BreakerState::kHalfOpen, BreakerState::kClosed},
  };
  EXPECT_EQ(s.moves, moves);

  EXPECT_EQ(s.stats.submitted, 12u);
  EXPECT_EQ(s.stats.failed, 5u);
  EXPECT_EQ(s.stats.circuit_shed, 4u);
  EXPECT_EQ(s.stats.shed, 4u);
  EXPECT_EQ(s.stats.completed, 3u);
  EXPECT_EQ(s.stats.breaker_opens, 2u);
  EXPECT_EQ(s.stats.breaker_probes, 2u);
  EXPECT_EQ(s.stats.breaker_closes, 1u);
  EXPECT_EQ(s.stats.submitted,
            s.stats.completed + s.stats.shed + s.stats.failed);
  EXPECT_EQ(s.storm_snapshot.at("engine.run").throws, 5u);
}

TEST(CircuitBreaker, SameSeedSameScheduleReplaysTransitionsAndFaults) {
  const Fixture f = make_batch_fixture(6, /*seed=*/113);
  const BreakerScenario a = run_breaker_scenario(/*storm_seed=*/61, f);
  const BreakerScenario b = run_breaker_scenario(/*storm_seed=*/61, f);
  EXPECT_EQ(a.statuses, b.statuses);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.storm_snapshot, b.storm_snapshot);
  EXPECT_EQ(a.stats.circuit_shed, b.stats.circuit_shed);
  EXPECT_EQ(a.stats.breaker_opens, b.stats.breaker_opens);
  EXPECT_EQ(a.stats.breaker_probes, b.stats.breaker_probes);
  EXPECT_EQ(a.stats.breaker_closes, b.stats.breaker_closes);
}

TEST(CircuitBreaker, FailuresAreIsolatedPerModel) {
  const Fixture model_a = make_batch_fixture(4, /*seed=*/127);
  const Fixture model_b = make_batch_fixture(4, /*seed=*/131);
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.engine = EngineKind::kAnalytic;
  options.breaker.window = 4;
  options.breaker.min_samples = 4;
  options.breaker.failure_threshold = 0.5;
  options.breaker.open_sheds = 4;
  options.breaker.probe_interval = 1;
  options.breaker.probe_successes = 1;
  options.breaker.seed = 3;
  ServingFrontend frontend(options);
  const std::size_t a = frontend.register_model(model_a.network, tiny_arch());
  const std::size_t b = frontend.register_model(model_b.network, tiny_arch());

  // Warm model A so its compiled image is cached — the armed compile
  // fault below then only reaches model B (the zoo.compile point
  // fires on the miss path only).
  ASSERT_EQ(frontend.submit(a, model_a.data.image(0)).get().status,
            ServeStatus::kOk);

  fault::ScopedFaultStorm storm(37);
  storm.add({.point = "zoo.compile", .action = fault::FaultAction::kThrow,
             .probability = 1.0, .message = "persistent compile failure"});
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(frontend.submit(b, model_b.data.image(i)).get().status,
              ServeStatus::kEngineError);
  ASSERT_TRUE(wait_for_state(frontend, b, BreakerState::kOpen));
  EXPECT_EQ(frontend.submit(b, model_b.data.image(0)).get().status,
            ServeStatus::kShedCircuitOpen);

  // Model A is untouched: breaker closed, traffic completes.
  EXPECT_EQ(frontend.breaker_state(a), BreakerState::kClosed);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(frontend.submit(a, model_a.data.image(i)).get().status,
              ServeStatus::kOk);
  frontend.shutdown();

  for (const auto& t : frontend.breaker_transitions())
    EXPECT_EQ(t.model, b);
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.circuit_shed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

// ---------------------------------------------------------------------------
// DegradedMode: analytic fallback instead of a lost request, bit-
// identical to a direct AnalyticEngine run.

TEST(DegradedMode, TightDeadlineBudgetFallsBackToAnalytic) {
  const Fixture f = make_batch_fixture(4, /*seed=*/137);
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.engine = EngineKind::kCycle;
  options.allow_degraded = true;
  options.brownout_queue_fraction = 1.0;  // depth trigger out of the way
  options.brownout_deadline_sheds = 0;    // pressure trigger off
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  const SimResult golden = [&] {
    const auto engine = make_engine(EngineKind::kAnalytic, tiny_arch());
    const CompiledNetwork image(f.network, tiny_arch(),
                                /*use_predictor=*/true);
    return engine->run(image, f.data.image(1), ValidationMode::kOff);
  }();

  fault::ScopedFaultStorm storm(41);
  // One 150ms stall on the warmup run inflates the model's observed
  // cycle-path latency estimate far beyond any realistic deadline.
  storm.add({.point = "engine.run", .action = fault::FaultAction::kDelay,
             .one_shot = true, .delay_us = 150000});
  const ServeResult warm = frontend.submit(model, f.data.image(0)).get();
  ASSERT_EQ(warm.status, ServeStatus::kOk);
  EXPECT_FALSE(warm.degraded);  // no deadline, no brownout: primary path

  // A 50ms budget is provably below the ~150ms estimate: the request
  // degrades to the analytic fallback instead of being shed.
  SubmitOptions tight;
  tight.deadline_us = 50000;
  const ServeResult r = frontend.submit(model, f.data.image(1), tight).get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.result, golden);  // bit-identical to the direct run
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.degraded_completed, 1u);
  EXPECT_EQ(stats.deadline_shed, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

TEST(DegradedMode, BrownoutDegradesInsteadOfShedding) {
  const std::array<Fixture, 2> fixtures = {
      make_batch_fixture(4, /*seed=*/139), make_batch_fixture(4, /*seed=*/141)};
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.engine = EngineKind::kCycle;
  options.allow_degraded = true;
  options.brownout_queue_fraction = 1.0;  // depth trigger out of the way
  options.brownout_deadline_sheds = 3;
  options.brownout_window = 64;
  ServingFrontend frontend(options);
  std::array<std::size_t, 2> models{};
  for (std::size_t m = 0; m < models.size(); ++m)
    models[m] = frontend.register_model(fixtures[m].network, tiny_arch());

  {
    // Three doomed requests: a batch-entry delay guarantees each 1µs
    // deadline has expired by claim time, so all three are shed
    // kDeadlineExceeded — tripping the brownout pressure signal.
    fault::ScopedFaultStorm storm(43);
    storm.add({.point = "serve.worker.batch",
               .action = fault::FaultAction::kDelay, .probability = 1.0,
               .delay_us = 3000});
    SubmitOptions doomed;
    doomed.deadline_us = 1;
    for (int i = 0; i < 3; ++i) {
      const ServeResult r =
          frontend.submit(models[0], fixtures[0].data.image(0), doomed).get();
      ASSERT_EQ(r.status, ServeStatus::kDeadlineExceeded);
    }
  }

  // Brownout is now active (3 recent deadline sheds ≥ the trigger):
  // requests with no deadline at all, on either model, degrade
  // transparently. 32 of them plus the 3 sheds stay inside the
  // 64-outcome window, so the pressure signal holds throughout.
  // Request i goes to model i % 2 with input (i + 2) % 4.
  constexpr std::size_t kRequests = 32;
  const auto input_of = [&](std::size_t i) {
    const Fixture& f = fixtures[i % 2];
    return f.data.image((i + 2) % f.data.size());
  };
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(frontend.submit(models[i % 2], input_of(i)));

  const auto analytic = make_engine(EngineKind::kAnalytic, tiny_arch());
  const std::array<CompiledNetwork, 2> images = {
      CompiledNetwork(fixtures[0].network, tiny_arch(), true),
      CompiledNetwork(fixtures[1].network, tiny_arch(), true)};
  for (std::size_t i = 0; i < kRequests; ++i) {
    const ServeResult r = futures[i].get();
    ASSERT_EQ(r.status, ServeStatus::kOk) << "request " << i;
    EXPECT_TRUE(r.degraded) << "request " << i;
    EXPECT_EQ(r.result, analytic->run(images[i % 2], input_of(i),
                                      ValidationMode::kOff))
        << "request " << i;
  }
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.deadline_shed, 3u);
  EXPECT_EQ(stats.degraded_completed, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

// ---------------------------------------------------------------------------
// The acceptance storm: best-effort flood + failing model + brownout,
// three workers, everything on at once.

TEST(OverloadStorm, FloodShedsByClassBreaksTheFailingModelAndDegrades) {
  constexpr std::size_t kFlood = 760;
  const Fixture model_a = make_batch_fixture(6, /*seed=*/149);
  const Fixture model_b = make_batch_fixture(6, /*seed=*/151);

  // Goldens for model A on both backends: non-degraded completions
  // must match the cycle engine bitwise, degraded ones the analytic
  // fallback.
  std::vector<SimResult> golden_cycle, golden_analytic;
  {
    const auto cycle = make_engine(EngineKind::kCycle, tiny_arch());
    const auto analytic = make_engine(EngineKind::kAnalytic, tiny_arch());
    const CompiledNetwork image(model_a.network, tiny_arch(),
                                /*use_predictor=*/true);
    for (std::size_t i = 0; i < model_a.data.size(); ++i) {
      golden_cycle.push_back(
          cycle->run(image, model_a.data.image(i), ValidationMode::kOff));
      golden_analytic.push_back(
          analytic->run(image, model_a.data.image(i), ValidationMode::kOff));
    }
  }

  ServingOptions options;
  options.num_workers = 3;
  options.max_batch = 4;
  options.engine = EngineKind::kCycle;
  options.queue_capacity = 256;
  options.max_queued_per_model = 256;
  options.class_watermarks = {1.0, 0.75, 0.25};
  options.allow_degraded = true;
  options.brownout_queue_fraction = 0.02;  // brownout above depth 5
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  options.breaker.failure_threshold = 0.5;
  options.breaker.open_sheds = 8;
  options.breaker.probe_interval = 2;
  options.breaker.probe_successes = 2;
  options.breaker.seed = 7;
  ServingFrontend frontend(options);
  const std::size_t a = frontend.register_model(model_a.network, tiny_arch());
  const std::size_t b = frontend.register_model(model_b.network, tiny_arch());

  // Client-side per-class tallies (checked against the frontend's).
  std::array<std::uint64_t, kNumPriorityClasses> submitted{}, completed{},
      shed{}, failed{};
  const auto tally = [&](const ServeResult& r) {
    const std::size_t c = class_index(r.priority);
    switch (r.status) {
      case ServeStatus::kOk:
        ++completed[c];
        break;
      case ServeStatus::kShedQueueFull:
      case ServeStatus::kShedModelBusy:
      case ServeStatus::kShedCircuitOpen:
      case ServeStatus::kShutdown:
      case ServeStatus::kDeadlineExceeded:
        ++shed[c];
        break;
      case ServeStatus::kEngineError:
        ++failed[c];
        break;
    }
  };

  // Warm model A (compiled-image cache) before arming compile faults.
  ++submitted[class_index(Priority::kNormal)];
  tally(frontend.submit(a, model_a.data.image(0)).get());

  double worst_high_us = 0.0;
  {
    fault::ScopedFaultStorm storm(20260807);
    // Model B cannot compile for the whole storm; every batch also
    // pays a 500µs entry delay so the flood genuinely outruns the
    // workers and the queue rides its watermarks.
    storm.add({.point = "zoo.compile", .action = fault::FaultAction::kThrow,
               .probability = 1.0, .message = "persistent compile failure"});
    storm.add({.point = "serve.worker.batch",
               .action = fault::FaultAction::kDelay, .probability = 1.0,
               .delay_us = 500});

    struct Issued {
      std::size_t input;
      Priority priority;
      std::future<ServeResult> future;
    };
    std::vector<Issued> issued;
    issued.reserve(kFlood);
    for (std::size_t r = 0; r < kFlood; ++r) {
      const Priority pri = (r % 19 == 0)  ? Priority::kHigh
                           : (r % 5 == 0) ? Priority::kNormal
                                          : Priority::kBestEffort;
      // High-priority traffic targets the healthy model only; the
      // rest alternates between A and the failing B.
      const std::size_t model =
          pri == Priority::kHigh ? a : ((r & 1) != 0 ? b : a);
      const std::size_t input = r % model_a.data.size();
      SubmitOptions so;
      so.priority = pri;
      ++submitted[class_index(pri)];
      issued.push_back(Issued{
          input, pri,
          frontend.submit(model,
                          (model == a ? model_a : model_b).data.image(input),
                          so)});
    }

    for (Issued& req : issued) {
      const ServeResult r = req.future.get();  // every future resolves
      tally(r);
      if (r.priority == Priority::kHigh)
        worst_high_us = std::max(worst_high_us, r.total_us);
      if (r.status == ServeStatus::kOk && r.model == a) {
        // Degraded ⇒ bit-identical to the analytic fallback;
        // otherwise bit-identical to the cycle primary.
        const SimResult& expected = r.degraded
                                        ? golden_analytic[req.input]
                                        : golden_cycle[req.input];
        ASSERT_EQ(r.result, expected)
            << "input " << req.input << " degraded=" << r.degraded;
      }
    }
  }

  // Storm over: model B compiles again. Drive its breaker through the
  // open budget and the seeded probes until it closes.
  ASSERT_NE(frontend.breaker_state(b), BreakerState::kClosed);
  bool recovered = false;
  for (int i = 0; i < 300 && !recovered; ++i) {
    ++submitted[class_index(Priority::kNormal)];
    tally(frontend.submit(b, model_b.data.image(i % 6)).get());
    std::this_thread::sleep_for(200us);  // let the outcome record land
    recovered = frontend.breaker_state(b) == BreakerState::kClosed;
  }
  EXPECT_TRUE(recovered);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  // High priority rode out the storm shed-free, with bounded latency.
  EXPECT_EQ(stats.shed_by_class[class_index(Priority::kHigh)], 0u);
  EXPECT_EQ(stats.failed_by_class[class_index(Priority::kHigh)], 0u);
  EXPECT_EQ(stats.completed_by_class[class_index(Priority::kHigh)],
            submitted[class_index(Priority::kHigh)]);
  EXPECT_LT(worst_high_us, 10e6);
  // Best-effort bore the shedding.
  EXPECT_GT(stats.shed_by_class[class_index(Priority::kBestEffort)], 0u);
  // The failing model's breaker opened, shed, and later recovered.
  EXPECT_GE(stats.breaker_opens, 1u);
  EXPECT_GE(stats.breaker_closes, 1u);
  EXPECT_GT(stats.circuit_shed, 0u);
  const auto transitions = frontend.breaker_transitions();
  EXPECT_TRUE(std::any_of(transitions.begin(), transitions.end(),
                          [&](const ModelHealth::Transition& t) {
                            return t.model == b &&
                                   t.to == BreakerState::kOpen;
                          }));
  EXPECT_TRUE(std::any_of(transitions.begin(), transitions.end(),
                          [&](const ModelHealth::Transition& t) {
                            return t.model == b &&
                                   t.to == BreakerState::kClosed;
                          }));
  // Brownout produced degraded completions (all verified bit-identical
  // above).
  EXPECT_GT(stats.degraded_completed, 0u);

  // Exact accounting, globally and per class, client view == frontend.
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
  for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
    EXPECT_EQ(stats.submitted_by_class[c], submitted[c]);
    EXPECT_EQ(stats.completed_by_class[c], completed[c]);
    EXPECT_EQ(stats.shed_by_class[c], shed[c]);
    EXPECT_EQ(stats.failed_by_class[c], failed[c]);
    EXPECT_EQ(stats.submitted_by_class[c],
              stats.completed_by_class[c] + stats.shed_by_class[c] +
                  stats.failed_by_class[c]);
  }
}

}  // namespace
}  // namespace sparsenn
