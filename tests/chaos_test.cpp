// Chaos tier: the serving stack under seeded fault storms.
//
// The fault framework (common/fault.hpp) and the failure-contained
// frontend (serve/frontend.hpp) together promise three invariants that
// every test here hammers from a different angle:
//
//   1. every accepted future resolves with a definite status — no
//      std::future_error, no worker death, no process death;
//   2. accounting is exact: submitted == completed + shed + failed,
//      both in the frontend's own counters and as seen by the client;
//   3. requests untouched by any fault are bit-identical to a direct
//      engine run — faults fail requests, they never silently skew
//      surviving results (and injected corruption is exactly
//      reconstructible via fault::kCorruptMask).
//
// Storms are seeded and the framework's firing decisions are pure
// functions of (seed, point, hit index), so a failing storm replays
// from its seed. The FaultStorm.* suite pins the framework semantics
// themselves; Containment/Watchdog/Deadline pin each serving defence
// in isolation; ChaosStorm composes them all.
//
// When SPARSENN_CHAOS_JSON names a file, the storm test writes a
// machine-readable summary (CI uploads it as an artifact).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "serve/frontend.hpp"
#include "sim/compiled_network.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// FaultStorm: the framework's own semantics.

TEST(FaultStorm, DisarmedPointsAreInertAndReturnFalse) {
  ASSERT_FALSE(fault::armed());
  EXPECT_FALSE(fault::point("nonexistent.point"));
  EXPECT_TRUE(fault::snapshot().empty());
}

TEST(FaultStorm, OneShotFiresExactlyOnce) {
  fault::ScopedFaultStorm storm(1);
  storm.add({.point = "p", .action = fault::FaultAction::kCorrupt,
             .one_shot = true});
  EXPECT_TRUE(fault::point("p"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fault::point("p"));
  const auto stats = fault::snapshot().at("p");
  EXPECT_EQ(stats.hits, 11u);
  EXPECT_EQ(stats.corruptions, 1u);
}

TEST(FaultStorm, EveryNthFiresOnSchedule) {
  fault::ScopedFaultStorm storm(2);
  storm.add({.point = "p", .action = fault::FaultAction::kCorrupt,
             .every_n = 3});
  std::vector<int> fired;
  for (int i = 0; i < 9; ++i)
    if (fault::point("p")) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{2, 5, 8}));
}

TEST(FaultStorm, ThrowActionThrowsFaultInjectedErrorWithMessage) {
  fault::ScopedFaultStorm storm(3);
  storm.add({.point = "p", .action = fault::FaultAction::kThrow,
             .probability = 1.0, .message = "chaos says no"});
  try {
    fault::point("p");
    FAIL() << "armed kThrow point did not throw";
  } catch (const fault::FaultInjectedError& e) {
    EXPECT_STREQ(e.what(), "chaos says no");
  }
  EXPECT_EQ(fault::snapshot().at("p").throws, 1u);
}

TEST(FaultStorm, DelayActionSleepsApproximatelyDelayUs) {
  fault::ScopedFaultStorm storm(4);
  storm.add({.point = "p", .action = fault::FaultAction::kDelay,
             .probability = 1.0, .delay_us = 20000});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(fault::point("p"));  // delay is not corruption
  EXPECT_GE(std::chrono::steady_clock::now() - start, 20ms);
  EXPECT_EQ(fault::snapshot().at("p").delays, 1u);
}

TEST(FaultStorm, ProbabilityDecisionsAreAPureFunctionOfTheSeed) {
  // Same seed → identical firing hit-indices; the decision for hit k
  // is stateless, so this holds regardless of interleaving.
  const auto firing_set = [](std::uint64_t seed) {
    fault::ScopedFaultStorm storm(seed);
    storm.add({.point = "p", .action = fault::FaultAction::kCorrupt,
               .probability = 0.3});
    std::vector<int> fired;
    for (int i = 0; i < 500; ++i)
      if (fault::point("p")) fired.push_back(i);
    return fired;
  };
  const std::vector<int> a = firing_set(1234);
  const std::vector<int> b = firing_set(1234);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 100u);  // ~150 expected at p=0.3
  EXPECT_LT(a.size(), 250u);
  EXPECT_NE(a, firing_set(9999));  // astronomically unlikely to match
}

TEST(FaultStorm, CorruptionIsDetectableAndExactlyReversible) {
  std::vector<std::int16_t> values{0, 1, -1, 32767, -32768, 1234};
  const std::vector<std::int16_t> original = values;
  fault::corrupt_i16(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NE(values[i], original[i]);
    EXPECT_EQ(static_cast<std::int16_t>(values[i] ^ fault::kCorruptMask),
              original[i]);
  }
  fault::corrupt_i16(values);  // XOR is its own inverse
  EXPECT_EQ(values, original);
}

TEST(FaultStorm, ScopedStormDisarmsOnExit) {
  {
    fault::ScopedFaultStorm storm(5);
    storm.add({.point = "p", .action = fault::FaultAction::kCorrupt,
               .probability = 1.0});
    EXPECT_TRUE(fault::armed());
    EXPECT_TRUE(fault::point("p"));
  }
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::point("p"));
}

// ---------------------------------------------------------------------------
// Containment: a throwing engine fails requests, never futures/workers.

ServingOptions chaos_options(std::size_t workers = 2) {
  ServingOptions o;
  o.num_workers = workers;
  o.max_batch = 4;
  o.engine = EngineKind::kAnalytic;
  return o;
}

TEST(Containment, ThrowingEngineResolvesEveryFutureWithEngineError) {
  // Satellite regression: before this PR an exception outside the
  // per-request try (or a worker-level throw) could abandon promises
  // and kill the worker. Now every request in the failed batch
  // resolves with kEngineError + the exception message, and the
  // worker survives to serve the post-storm requests.
  const Fixture f = make_batch_fixture(8, /*seed=*/71);
  ServingFrontend frontend(chaos_options());
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  std::vector<std::future<ServeResult>> futures;
  {
    fault::ScopedFaultStorm storm(11);
    storm.add({.point = "engine.run", .action = fault::FaultAction::kThrow,
               .probability = 1.0, .message = "injected engine crash"});
    for (std::size_t i = 0; i < f.data.size(); ++i)
      futures.push_back(frontend.submit(model, f.data.image(i)));
    for (auto& fut : futures) {
      const ServeResult r = fut.get();  // must not throw
      EXPECT_EQ(r.status, ServeStatus::kEngineError);
      EXPECT_NE(r.error.find("injected engine crash"), std::string::npos);
      EXPECT_TRUE(r.result.layers.empty());
      EXPECT_GE(r.batch_size, 1u);
    }
  }

  // The workers survived: fault-free traffic completes normally.
  const ServeResult healthy =
      frontend.submit(model, f.data.image(0)).get();
  EXPECT_EQ(healthy.status, ServeStatus::kOk);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.failed, f.data.size());
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

TEST(Containment, BatchLevelThrowFailsTheWholeBatchNotTheWorker) {
  const Fixture f = make_batch_fixture(6, /*seed=*/73);
  ServingFrontend frontend(chaos_options(/*workers=*/1));
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  {
    fault::ScopedFaultStorm storm(13);
    storm.add({.point = "serve.worker.batch",
               .action = fault::FaultAction::kThrow, .probability = 1.0,
               .message = "batch-level failure"});
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < f.data.size(); ++i)
      futures.push_back(frontend.submit(model, f.data.image(i)));
    for (auto& fut : futures) {
      const ServeResult r = fut.get();
      EXPECT_EQ(r.status, ServeStatus::kEngineError);
      EXPECT_NE(r.error.find("batch-level failure"), std::string::npos);
    }
  }
  EXPECT_EQ(frontend.submit(model, f.data.image(0)).get().status,
            ServeStatus::kOk);
}

// ---------------------------------------------------------------------------
// Watchdog: an injected hang is detected, capacity is restored, and
// the hung batch still resolves.

TEST(Watchdog, HungWorkerIsReplacedAndItsBatchStillResolves) {
  const Fixture f = make_batch_fixture(12, /*seed=*/89);
  ServingOptions options = chaos_options(/*workers=*/2);
  options.max_batch = 2;
  options.worker_stall_timeout_us = 15000;   // 15ms stall bound
  options.watchdog_interval_us = 3000;       // 3ms poll
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  fault::ScopedFaultStorm storm(23);
  // Exactly one 100ms hang — far beyond the stall bound, far below
  // the test's patience.
  storm.add({.point = "serve.worker.hang",
             .action = fault::FaultAction::kDelay, .one_shot = true,
             .delay_us = 100000});

  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < f.data.size(); ++i)
    futures.push_back(frontend.submit(model, f.data.image(i)));
  for (auto& fut : futures) {
    const ServeResult r = fut.get();  // including the hung batch
    EXPECT_EQ(r.status, ServeStatus::kOk);
  }
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.completed, f.data.size());
  EXPECT_GE(stats.workers_restarted, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

// ---------------------------------------------------------------------------
// Deadlines under pressure: a hang makes queued requests expire; they
// are shed at claim time without touching the engine.

TEST(Deadline, RequestsExpiredDuringAHangAreShedNotExecuted) {
  const Fixture f = make_batch_fixture(8, /*seed=*/97);
  ServingOptions options = chaos_options(/*workers=*/1);
  options.max_batch = 1;  // one request per batch: the hang delays all
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  fault::ScopedFaultStorm storm(29);
  storm.add({.point = "serve.worker.hang",
             .action = fault::FaultAction::kDelay, .one_shot = true,
             .delay_us = 60000});  // 60ms head-of-line hang

  SubmitOptions tight;
  tight.deadline_us = 20000;  // 20ms — dies behind the 60ms hang
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < f.data.size(); ++i)
    futures.push_back(frontend.submit(model, f.data.image(i), tight));

  std::uint64_t ok = 0, dead = 0;
  for (auto& fut : futures) {
    const ServeResult r = fut.get();
    if (r.status == ServeStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, ServeStatus::kDeadlineExceeded);
      EXPECT_TRUE(r.result.layers.empty());  // never executed
      ++dead;
    }
  }
  EXPECT_GE(ok, 1u);    // the head request (rides the hang, completes)
  EXPECT_GE(dead, 1u);  // someone queued behind it expired
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.deadline_shed, dead);
  EXPECT_EQ(stats.shed, dead);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

// ---------------------------------------------------------------------------
// Reproducibility: on a deterministic schedule (one worker, one
// request in flight), the same seed fires the same faults.

std::map<std::string, fault::PointStats> run_seeded_storm(
    std::uint64_t seed, const Fixture& f) {
  fault::ScopedFaultStorm storm(seed);
  storm.add({.point = "engine.run", .action = fault::FaultAction::kThrow,
             .probability = 0.2, .message = "injected engine crash"});
  storm.add({.point = "serve.result.corrupt",
             .action = fault::FaultAction::kCorrupt, .probability = 0.15});

  ServingOptions options = chaos_options(/*workers=*/1);
  options.max_batch = 1;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  // Strictly sequential: submit, await, next — the hit order at every
  // fault point is then a pure function of the schedule, so the seeded
  // decisions replay exactly.
  for (int round = 0; round < 5; ++round)
    for (std::size_t i = 0; i < f.data.size(); ++i)
      (void)frontend.submit(model, f.data.image(i)).get();
  frontend.shutdown();
  return fault::snapshot();
}

TEST(Reproducibility, SameSeedSameScheduleFiresIdenticalFaults) {
  const Fixture f = make_batch_fixture(10, /*seed=*/101);
  const auto a = run_seeded_storm(4242, f);
  const auto b = run_seeded_storm(4242, f);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.at("engine.run").throws, 0u);
  EXPECT_GT(a.at("serve.result.corrupt").corruptions, 0u);
  const auto c = run_seeded_storm(777, f);
  // A different seed re-rolls every probability decision; identical
  // firing counts across both points is effectively impossible.
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------------
// The full storm: everything at once, invariants checked exactly.

TEST(ChaosStorm, ThousandsOfRequestsUnderARandomizedFaultStorm) {
  constexpr std::uint64_t kSeed = 20260807;
  constexpr std::size_t kRequests = 2000;

  const Fixture model_a = make_batch_fixture(6, /*seed=*/103);
  const Fixture model_b = make_batch_fixture(6, /*seed=*/107);
  const std::vector<const Fixture*> fixtures{&model_a, &model_b};

  // Goldens computed disarmed: the reference the fault-free requests
  // must match bitwise.
  std::vector<std::vector<SimResult>> golden(fixtures.size());
  {
    const auto engine = make_engine(EngineKind::kAnalytic, tiny_arch());
    for (std::size_t m = 0; m < fixtures.size(); ++m) {
      const CompiledNetwork image(fixtures[m]->network, tiny_arch(),
                                  /*use_predictor=*/true);
      for (std::size_t i = 0; i < fixtures[m]->data.size(); ++i)
        golden[m].push_back(
            engine->run(image, fixtures[m]->data.image(i)));
    }
  }

  ServingOptions options;
  options.num_workers = 3;
  options.max_batch = 4;
  options.engine = EngineKind::kAnalytic;
  options.queue_capacity = 4096;
  options.max_queued_per_model = 4096;
  options.worker_stall_timeout_us = 10000;  // 10ms
  options.watchdog_interval_us = 2000;
  ServingFrontend frontend(options);
  std::vector<std::size_t> handles;
  for (const Fixture* f : fixtures)
    handles.push_back(frontend.register_model(f->network, tiny_arch()));

  fault::ScopedFaultStorm storm(kSeed);
  storm.add({.point = "engine.run", .action = fault::FaultAction::kThrow,
             .probability = 0.03, .message = "injected engine crash"});
  storm.add({.point = "serve.result.corrupt",
             .action = fault::FaultAction::kCorrupt, .probability = 0.02});
  storm.add({.point = "serve.worker.hang",
             .action = fault::FaultAction::kDelay, .every_n = 251,
             .delay_us = 25000});  // sporadic 25ms hangs > stall bound
  storm.add({.point = "serve.queue.push",
             .action = fault::FaultAction::kDelay, .every_n = 97,
             .delay_us = 100});

  struct Issued {
    std::size_t model;
    std::size_t input;
    std::future<ServeResult> future;
  };
  std::vector<Issued> issued;
  issued.reserve(kRequests);
  for (std::size_t r = 0; r < kRequests; ++r) {
    const std::size_t m = r % fixtures.size();
    const std::size_t i = (r / fixtures.size()) % fixtures[m]->data.size();
    SubmitOptions submit_options;
    // Every 5th request carries a deadline tight enough to die behind
    // a 25ms hang but generous for the healthy path.
    if (r % 5 == 0) submit_options.deadline_us = 8000;
    issued.push_back(Issued{
        m, i,
        frontend.submit(handles[m], fixtures[m]->data.image(i),
                        submit_options)});
  }

  // Invariant 1: every future resolves with a definite status. get()
  // throwing (broken promise, leaked exception) fails the test.
  std::uint64_t ok = 0, shed = 0, failed = 0, corrupted = 0;
  for (Issued& req : issued) {
    const ServeResult r = req.future.get();
    switch (r.status) {
      case ServeStatus::kOk: {
        ++ok;
        // Invariant 3: fault-free ⇒ bit-identical; corrupted ⇒
        // exactly the XOR-mask transform of the golden output.
        const SimResult& expected = golden[req.model][req.input];
        if (r.fault_corrupted) {
          ++corrupted;
          ASSERT_EQ(r.result.output.size(), expected.output.size());
          for (std::size_t k = 0; k < expected.output.size(); ++k)
            ASSERT_EQ(static_cast<std::int16_t>(r.result.output[k] ^
                                                fault::kCorruptMask),
                      expected.output[k]);
        } else {
          ASSERT_EQ(r.result, expected)
              << "fault-free request diverged (model " << req.model
              << ", input " << req.input << ")";
        }
        break;
      }
      case ServeStatus::kShedQueueFull:
      case ServeStatus::kShedModelBusy:
      case ServeStatus::kShedCircuitOpen:
      case ServeStatus::kShutdown:
      case ServeStatus::kDeadlineExceeded:
        ++shed;
        break;
      case ServeStatus::kEngineError:
        EXPECT_FALSE(r.error.empty());
        ++failed;
        break;
    }
  }
  frontend.shutdown();

  // Invariant 2: exact accounting, client view == frontend view.
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
  EXPECT_EQ(ok + shed + failed, kRequests);

  // The storm actually stormed: each fault class fired.
  const auto fired = fault::snapshot();
  EXPECT_GT(fired.at("engine.run").throws, 0u);
  EXPECT_GT(fired.at("serve.worker.hang").delays, 0u);
  EXPECT_GT(stats.failed, 0u);
  EXPECT_GE(stats.workers_restarted, 1u);

  // Optional machine-readable summary for the CI artifact.
  if (const char* path = std::getenv("SPARSENN_CHAOS_JSON")) {
    std::ostringstream os;
    os << "{\n  \"seed\": " << kSeed
       << ",\n  \"requests\": " << kRequests
       << ",\n  \"submitted\": " << stats.submitted
       << ",\n  \"completed\": " << stats.completed
       << ",\n  \"shed\": " << stats.shed
       << ",\n  \"deadline_shed\": " << stats.deadline_shed
       << ",\n  \"failed\": " << stats.failed
       << ",\n  \"workers_restarted\": " << stats.workers_restarted
       << ",\n  \"corrupted_detected\": " << corrupted
       << ",\n  \"accounting_exact\": "
       << (stats.submitted == stats.completed + stats.shed + stats.failed
               ? "true"
               : "false")
       << ",\n  \"fault_points\": {";
    bool first = true;
    for (const auto& [name, s] : fired) {
      os << (first ? "" : ",") << "\n    \"" << name << "\": {\"hits\": "
         << s.hits << ", \"throws\": " << s.throws << ", \"delays\": "
         << s.delays << ", \"corruptions\": " << s.corruptions << "}";
      first = false;
    }
    os << "\n  }\n}\n";
    std::ofstream out(path);
    out << os.str();
  }
}

}  // namespace
}  // namespace sparsenn
