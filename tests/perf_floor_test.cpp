// Wall-clock floors: the engines' speed relative to each other, and
// the serving tier's closed-loop saturation throughput.
//
// Every other suite checks what a run computes; this one checks how
// fast. The engine case times six ways of running one inference in
// interleaved windows of the same process and asserts floors on the
// ratios between them, so a host whose speed drifts between runs moves
// both sides of every ratio together. Each timed result is also
// checked against the per-cycle reference (predictions only, for the
// analytic engine), so a fast wrong engine cannot pass. No same-run
// ratio can see a slowdown that hits every engine equally.
//
//   per-inference — compile the network and validate every layer on
//                   every inference, stepping every cycle;
//   per-cycle     — a compiled image, validation off, every cycle;
//   event         — the same under SteppingMode::kEvent;
//   compiled      — the same on a default-constructed engine;
//   arena         — compiled, writing into a ResultArena;
//   analytic      — AnalyticEngine on the same image and arena.
//
// Timing floors only mean something in an optimised, unsanitised
// build, so elsewhere both cases report a skip. CMakeLists.txt marks
// the suite RUN_SERIAL, so `ctest -j` runs nothing next to it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "serve/frontend.hpp"
#include "sim/accelerator.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/result_arena.hpp"
#include "sim_fixtures.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPARSENN_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPARSENN_PERF_SANITIZED 1
#endif
#endif

namespace sparsenn {
namespace {

#if defined(__OPTIMIZE__) && !defined(SPARSENN_PERF_SANITIZED)
constexpr bool kTimedBuild = true;
#else
constexpr bool kTimedBuild = false;
#endif

using Clock = std::chrono::steady_clock;

// Baseline medians: 9 Release runs of the engine-throughput bench this
// suite replaced (`--samples 8 --hidden 96`, uv on, one thread) on a
// 4-vCPU AVX2 container, from the snapshot CI compared every Release
// run against. Rates are inferences per second.
constexpr double kBaselinePerInferenceRate = 499.756;
constexpr double kBaselinePerCycleRate = 576.482;
constexpr double kBaselineCompiledRate = 902.924;
constexpr double kBaselineArenaRate = 980.177;
constexpr double kBaselineAnalyticRate = 55385.4;
// This suite's own medians for the event core, over 12 Release runs on
// the same host once the census (sim/census.hpp) replaced the PE's
// per-event counters: event/per-cycle 2.275–2.432, compiled/
// per-inference 2.415–2.574.
constexpr double kBaselineEventOverPerCycle = 2.385;
constexpr double kBaselineCompiledOverPerInference = 2.494;
// The analytic engine is gated against the per-cycle engine, not the
// event core, so a faster event core cannot fail it: the median of 11
// runs' analytic/per-cycle medians of this suite (97.8–115.9) on the
// same host, measured while the PE still kept per-event counters.
// Dropping them sped up the per-cycle reference alone, by the median
// of 12 alternating before/after runs' per-cycle rates; dividing by
// that keeps the floor on the same analytic speed.
constexpr double kBaselineAnalyticOverPerCycle = 106.954;
constexpr double kPerCycleSpeedupWithoutPeCounters = 1.101;

// CI failed a metric more than 20% below its baseline.
constexpr double kTolerance = 0.8;

enum Engine : std::size_t {
  kPerInference,
  kPerCycle,
  kEvent,
  kCompiled,
  kArena,
  kAnalytic,
  kNumEngines,
};

constexpr std::array<const char*, kNumEngines> kEngineNames = {
    "per-inference", "per-cycle", "event", "compiled", "arena", "analytic"};

struct RatioFloor {
  Engine numerator;
  Engine denominator;
  double floor;
};

// Each floor is 80% of its baseline ratio (the analytic one at least
// 10, CI's old hard floor).
const std::array<RatioFloor, 5> kFloors = {{
    {kCompiled, kPerInference,
     kTolerance * kBaselineCompiledOverPerInference},
    {kAnalytic, kPerCycle,
     std::max(10.0, kTolerance * kBaselineAnalyticOverPerCycle /
                        kPerCycleSpeedupWithoutPeCounters)},
    {kEvent, kPerCycle, kTolerance * kBaselineEventOverPerCycle},
    {kArena, kCompiled,
     kTolerance * kBaselineArenaRate / kBaselineCompiledRate},
    {kPerCycle, kPerInference,
     kTolerance * kBaselinePerCycleRate / kBaselinePerInferenceRate},
}};

constexpr std::size_t kRounds = 21;
constexpr std::size_t kCycleWindow = 32;  // inferences per window
constexpr std::size_t kAnalyticWindow = 2048;

/// Predictions across backends: activations, sparsity counts and
/// logits, but not the cycles and contention statistics the analytic
/// engine does not model exactly.
bool same_predictions(const SimResult& a, const SimResult& b) {
  if (a.output != b.output || a.layers.size() != b.layers.size())
    return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].activations != b.layers[l].activations ||
        a.layers[l].nnz_inputs != b.layers[l].nnz_inputs ||
        a.layers[l].active_rows != b.layers[l].active_rows)
      return false;
  }
  return true;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(PerfFloor, EngineRatiosFromInterleavedWindows) {
  if (!kTimedBuild)
    GTEST_SKIP() << "timing floors need an optimised, unsanitised build";

  // {784, 96, 96, 96, 10} with random weights and rank-15 predictors
  // on the hidden layers; 8 inputs with ~60% zeros; paper arch, uv on.
  Rng rng{42};
  Network net{five_layer_topology(96), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto sizes = net.layer_sizes();
    net.set_predictor(l,
                      Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  Matrix calib(8, 784);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  const QuantizedNetwork network(net, calib);
  std::vector<Vector> inputs(8, Vector(784, 0.0f));
  for (Vector& x : inputs)
    for (float& v : x)
      v = rng.bernoulli(0.6) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));

  const ArchParams arch = ArchParams::paper();
  const CompiledNetwork compiled(network, arch, /*use_predictor=*/true);
  AcceleratorSim per_inference_sim(arch);
  per_inference_sim.set_stepping_mode(SteppingMode::kPerCycle);
  AcceleratorSim per_cycle_sim(arch);
  per_cycle_sim.set_stepping_mode(SteppingMode::kPerCycle);
  AcceleratorSim event_sim(arch);
  event_sim.set_stepping_mode(SteppingMode::kEvent);
  AcceleratorSim compiled_sim(arch);
  AcceleratorSim arena_sim(arch);
  ResultArena arena(compiled);
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  ResultArena analytic_arena(compiled);

  // The reference runs validate every layer against the functional
  // model.
  std::vector<SimResult> reference;
  for (const Vector& x : inputs)
    reference.push_back(per_inference_sim.run(network, x, true));

  std::array<std::uint64_t, kNumEngines> mismatches{};
  const auto run_one = [&](Engine e, std::size_t i) {
    const Vector& x = inputs[i];
    bool ok = false;
    switch (e) {
      case kPerInference:
        ok = per_inference_sim.run(network, x, true) == reference[i];
        break;
      case kPerCycle:
        ok = per_cycle_sim.run(compiled, x, ValidationMode::kOff) ==
             reference[i];
        break;
      case kEvent:
        ok = event_sim.run(compiled, x, ValidationMode::kOff) ==
             reference[i];
        break;
      case kCompiled:
        ok = compiled_sim.run(compiled, x, ValidationMode::kOff) ==
             reference[i];
        break;
      case kArena:
        ok = arena_sim.run(compiled, x, arena, ValidationMode::kOff) ==
             reference[i];
        break;
      case kAnalytic:
        ok = same_predictions(
            analytic->run(compiled, x, analytic_arena, ValidationMode::kOff),
            reference[i]);
        break;
      case kNumEngines:
        break;
    }
    mismatches[e] += ok ? 0 : 1;
  };
  // One untimed inference grows each engine's scratch to steady size.
  for (std::size_t e = 0; e < kNumEngines; ++e)
    run_one(static_cast<Engine>(e), 0);

  // rates[e][round]: inferences per second in that round's window.
  // Odd rounds run the engines in reverse order, so no engine always
  // follows the same neighbour into a window.
  std::array<std::vector<double>, kNumEngines> rates;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kNumEngines; ++k) {
      const auto e =
          static_cast<Engine>(round % 2 == 0 ? k : kNumEngines - 1 - k);
      const std::size_t window =
          e == kAnalytic ? kAnalyticWindow : kCycleWindow;
      const auto start = Clock::now();
      for (std::size_t n = 0; n < window; ++n)
        run_one(e, n % inputs.size());
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      rates[e].push_back(static_cast<double>(window) / seconds);
    }
  }

  for (std::size_t e = 0; e < kNumEngines; ++e) {
    EXPECT_EQ(mismatches[e], 0u)
        << kEngineNames[e] << " diverged from the per-cycle reference";
    std::printf("%-14s median %10.1f inf/s\n", kEngineNames[e],
                median(rates[e]));
  }
  for (const RatioFloor& f : kFloors) {
    std::vector<double> ratios;
    for (std::size_t round = 0; round < kRounds; ++round)
      ratios.push_back(rates[f.numerator][round] /
                       rates[f.denominator][round]);
    const double mid = median(ratios);
    std::printf("%s/%s median %.3f (rounds %.3f-%.3f, floor %.3f)\n",
                kEngineNames[f.numerator], kEngineNames[f.denominator], mid,
                *std::min_element(ratios.begin(), ratios.end()),
                *std::max_element(ratios.begin(), ratios.end()), f.floor);
    EXPECT_GE(mid, f.floor) << kEngineNames[f.numerator] << "/"
                            << kEngineNames[f.denominator];
  }
}

/// {24, 20 + 2·index, 18, 6} with rank-4 predictors: each model has its
/// own hidden width, so the zoo holds distinct images.
QuantizedNetwork serving_model(std::size_t index, Rng& rng) {
  const std::size_t hidden = 20 + 2 * index;
  Network net{{24, hidden, 18, 6}, rng};
  net.set_predictor(0, Predictor::random(hidden, 24, 4, rng));
  net.set_predictor(1, Predictor::random(18, hidden, 4, rng));
  Matrix calib(4, 24);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  return QuantizedNetwork(net, calib);
}

TEST(PerfFloor, ServingClosedLoopSaturation) {
  if (!kTimedBuild)
    GTEST_SKIP() << "timing floors need an optimised, unsanitised build";

  // CI's floor: half the baseline's single-threaded analytic rate.
  constexpr double kSaturationFloor = 0.5 * kBaselineAnalyticRate;
  constexpr std::size_t kClients = 400;
  constexpr std::size_t kRequests = 2000;

  Rng rng{2024};
  std::vector<QuantizedNetwork> models;
  for (std::size_t m = 0; m < 2; ++m) models.push_back(serving_model(m, rng));
  std::vector<std::vector<float>> inputs(32, std::vector<float>(24, 0.0f));
  for (auto& x : inputs)
    for (float& v : x)
      v = rng.bernoulli(0.4) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));

  ServingOptions options;
  options.num_workers =
      std::max<std::size_t>(2, std::thread::hardware_concurrency() / 2);
  options.max_batch = 16;
  options.engine = EngineKind::kAnalytic;
  // Every client's request fits: a shed is a frontend bug, not load.
  options.queue_capacity = kClients + options.max_batch;
  options.max_queued_per_model = options.queue_capacity;
  ServingFrontend frontend(options);
  std::vector<std::size_t> handles;
  for (const QuantizedNetwork& m : models)
    handles.push_back(frontend.register_model(m, test_fixtures::tiny_arch()));

  // Closed loop: every client keeps one request outstanding and
  // resubmits on completion. One thread polls every client's future.
  // Models are zipf(1.0)-popular: ranks weigh 1 and 1/2.
  struct Client {
    std::future<ServeResult> future;
    Clock::time_point submitted;
    bool active = false;
  };
  const auto submit = [&](Client& c) {
    const std::size_t model = rng.uniform() < 2.0 / 3.0 ? 0 : 1;
    const std::vector<float>& x = inputs[rng.uniform_index(inputs.size())];
    c.submitted = Clock::now();
    c.future = frontend.submit(handles[model], x);
    c.active = true;
  };
  std::uint64_t ok = 0, shed = 0, failed = 0;
  std::vector<double> latencies_us;
  std::vector<Client> clients(kClients);
  const auto start = Clock::now();
  std::size_t issued = 0;
  for (Client& c : clients) {
    submit(c);
    ++issued;
  }
  std::size_t live = clients.size();
  while (live > 0) {
    bool progressed = false;
    for (Client& c : clients) {
      if (!c.active || c.future.wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready)
        continue;
      const ServeResult r = c.future.get();
      c.active = false;
      progressed = true;
      if (r.status == ServeStatus::kOk) {
        ++ok;
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      c.submitted)
                .count());
      } else if (r.status == ServeStatus::kEngineError) {
        ++failed;
      } else {
        ++shed;
      }
      if (issued < kRequests) {
        submit(c);
        ++issued;
      } else {
        --live;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  frontend.shutdown();

  EXPECT_EQ(ok + shed + failed, kRequests);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(shed, 0u);
  ASSERT_FALSE(latencies_us.empty());
  std::sort(latencies_us.begin(), latencies_us.end());
  const double p99 = latencies_us[latencies_us.size() * 99 / 100];
  EXPECT_TRUE(std::isfinite(p99) && p99 > 0.0) << p99;
  const double throughput = static_cast<double>(ok) / seconds;
  std::printf("closed loop %.0f req/s (floor %.1f), p99 %.0f us\n",
              throughput, kSaturationFloor, p99);
  EXPECT_GE(throughput, kSaturationFloor);
}

}  // namespace
}  // namespace sparsenn
