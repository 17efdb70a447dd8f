// sim_throughput — measures the compiled-engine speedup and emits the
// numbers as JSON for the performance trajectory.
//
//   ./sim_throughput [--samples n] [--hidden h] [--uv on|off]
//                    [--json-out path]
//
// Seven engines run the same inputs (the analytic one through its
// own backend, the rest through the same AcceleratorSim):
//
//   "per_inference" — the seed engine's work profile: the network's
//     per-PE slices are rebuilt for every inference and every layer is
//     cross-checked against the functional golden model
//     (AcceleratorSim::run(network, ...)); this is also exactly what a
//     repeated System::simulate() sweep cost before the system-level
//     compiled-image cache (today's ModelZoo) existed. This engine
//     runs with SteppingMode::kPerCycle (pure ticking), so the
//     bit_identical assertion below also pins the event-driven engine
//     against the per-cycle reference on every sample;
//
//   "compiled" — the network is compiled once (CompiledNetwork), the
//     first inference runs with ValidationMode::kFull, and the rest
//     run with validation off (default stepping — the event core);
//
//   "per_cycle_engine" — the same compiled image under
//     SteppingMode::kPerCycle (validation off): the reference the
//     event core's speedup is gated against. Its timing windows are
//     interleaved round-robin with event_engine's so machine noise
//     lands on both sides of the gated ratio equally;
//
//   "event_engine" — the same compiled image under
//     SteppingMode::kEvent, single-threaded. Reports inf/s plus the
//     wake-list economics (events_executed vs cycles_ticked and their
//     ratio) and "event_bit_identical"; CI gates "event_speedup"
//     (event vs per-cycle inf/s) >= 1.5 and the bit-identity flag. A
//     "sim_threads_scaling" sweep then re-runs it at 1,2,4,…,HW shard
//     threads — every point must stay bit-identical too;
//
//   "cached_sweep" — the System::simulate() sweep profile today: every
//     inference fetches the image from a ModelZoo (always
//     a hit after the first) and keeps the golden cross-check ON. The
//     reported "cached_sweep_speedup" vs per_inference is the win the
//     cache buys the fig/ablation single-shot sweeps;
//
//   "arena" — the compiled engine writing into a ResultArena
//     (validation off): the steady state performs ZERO heap
//     allocations per inference, and the bench exits nonzero if the
//     counted number is anything but 0;
//
//   "analytic" — the AnalyticEngine backend (sim/engine.hpp): the
//     functional forward pass with closed-form schedule math instead
//     of per-cycle NoC stepping. Its predictions (per-layer
//     activations, output, nnz/active-row counts, argmax labels) must
//     be bit-exact vs the cycle engines ("analytic_bit_exact",
//     asserted — CI gates on it); its cycle numbers are estimates, so
//     they are excluded from the SimResult equality check. The
//     reported "analytic_speedup" is single-threaded inf/s over the
//     compiled cycle engine — the model-zoo serving win. An untimed
//     pass over the inputs first reports "analytic_cycle_error"
//     {v, u, w, total}: the mean over samples of |analytic − cycle| /
//     cycle for each phase's cycles summed over layers, and for the
//     whole inference (tests/engine_equivalence_test pins it);
//
// Two final sections measure the BatchRunner keep_results=false path:
// marginal allocations per extra inference
// ("batch_arena_marginal_allocs_per_inference", asserted 0), and a
// thread-scaling sweep ("batch_scaling": inf/s at 1,2,4,…,HW threads
// on the cycle backend) recorded into the JSON so CI runs double as
// multi-core scaling measurements.
//
// The bench asserts all cycle engines' SimResults are bit-identical
// before reporting, and counts heap allocations via a global operator
// new hook.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/cli_args.hpp"
#include "common/simd.hpp"
#include "common/rng.hpp"
#include "core/model_zoo.hpp"
#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "sim/accelerator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/result_arena.hpp"

namespace {

using namespace sparsenn;

// Shared global operator-new counting hook (also used by
// tests/result_arena_test, so both measure the same definition of "a
// heap allocation"): the compiled engine should allocate O(layers) per
// inference (result vectors), the arena engine exactly 0.
std::atomic<std::uint64_t>& g_allocs = alloc_counter::count();

struct EngineStats {
  double wall_seconds = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t allocs = 0;
  std::size_t samples = 0;

  double inferences_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(samples) / wall_seconds
               : 0.0;
  }
  double cycles_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(cycles) / wall_seconds
               : 0.0;
  }
  double allocs_per_inference() const {
    return samples > 0
               ? static_cast<double>(allocs) / static_cast<double>(samples)
               : 0.0;
  }
};

/// Prediction equivalence across backends: everything except the
/// estimated cycle/event numbers — per-layer activations, the derived
/// sparsity counts, and the output logits (hence the argmax label).
bool predictions_match(const SimResult& a, const SimResult& b) {
  if (a.output != b.output || a.layers.size() != b.layers.size())
    return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].activations != b.layers[l].activations ||
        a.layers[l].nnz_inputs != b.layers[l].nnz_inputs ||
        a.layers[l].active_rows != b.layers[l].active_rows) {
      return false;
    }
  }
  return true;
}

/// Mean relative error of the analytic engine's cycle estimates against
/// the cycle engine's counts, per phase (summed over layers) and in
/// total. A phase the cycle engine did not run (V and U with uv off)
/// counts 0 when the estimate is 0 too and 1 (100%) otherwise.
struct CycleError {
  double v = 0.0;
  double u = 0.0;
  double w = 0.0;
  double total = 0.0;
  std::size_t samples = 0;

  void add(const SimResult& analytic, const SimResult& cycle) {
    const auto phase = [](const SimResult& r,
                          std::uint64_t LayerSimResult::*field) {
      std::uint64_t sum = 0;
      for (const LayerSimResult& l : r.layers) sum += l.*field;
      return sum;
    };
    const auto rel = [](std::uint64_t a, std::uint64_t c) {
      if (c == 0) return a == 0 ? 0.0 : 1.0;
      const double diff = a > c ? static_cast<double>(a - c)
                                : static_cast<double>(c - a);
      return diff / static_cast<double>(c);
    };
    v += rel(phase(analytic, &LayerSimResult::v_cycles),
             phase(cycle, &LayerSimResult::v_cycles));
    u += rel(phase(analytic, &LayerSimResult::u_cycles),
             phase(cycle, &LayerSimResult::u_cycles));
    w += rel(phase(analytic, &LayerSimResult::w_cycles),
             phase(cycle, &LayerSimResult::w_cycles));
    total += rel(analytic.total_cycles, cycle.total_cycles);
    ++samples;
  }

  friend std::ostream& operator<<(std::ostream& os, const CycleError& e) {
    const auto n = static_cast<double>(e.samples);
    return os << "{\"v\": " << e.v / n << ", \"u\": " << e.u / n
              << ", \"w\": " << e.w / n << ", \"total\": " << e.total / n
              << "}";
  }
};

void print_engine(std::ostream& os, const char* name, const EngineStats& s) {
  os << "  \"" << name << "\": {"
     << "\"wall_seconds\": " << s.wall_seconds
     << ", \"inferences_per_sec\": " << s.inferences_per_sec()
     << ", \"cycles_simulated_per_sec\": " << s.cycles_per_sec()
     << ", \"cycles_simulated\": " << s.cycles
     << ", \"samples\": " << s.samples
     << ", \"allocs_per_inference\": " << s.allocs_per_inference() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv, 1);
    const std::size_t samples = args.get_size("samples", 32);
    const std::size_t hidden = args.get_size("hidden", 256);
    const bool use_predictor = args.get("uv", "on") != "off";
    const std::string json_out = args.get("json-out", "");

    // The default 5-layer configuration {784, h, h, h, 10} with random
    // weights and rank-15 predictors on the hidden layers; throughput
    // does not depend on trained accuracy.
    Rng rng{42};
    Network net{five_layer_topology(hidden), rng};
    for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
      const auto sizes = net.layer_sizes();
      net.set_predictor(
          l, Predictor::random(sizes[l + 1], sizes[l], 15, rng));
    }
    Matrix calib(8, 784);
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    const QuantizedNetwork quantized(net, calib);

    std::vector<Vector> inputs(samples, Vector(784, 0.0f));
    for (Vector& x : inputs)
      for (float& v : x)
        v = rng.bernoulli(0.6) ? 0.0f
                               : static_cast<float>(rng.uniform(0.0, 1.0));

    const ArchParams arch = ArchParams::paper();
    AcceleratorSim sim(arch);
    using clock = std::chrono::steady_clock;

    // ---- per-inference engine (seed behaviour, pure per-cycle) ----
    std::vector<SimResult> reference;
    reference.reserve(samples);
    EngineStats per_inference;
    {
      AcceleratorSim per_cycle_sim(arch);
      per_cycle_sim.set_stepping_mode(SteppingMode::kPerCycle);
      const std::uint64_t allocs_before = g_allocs.load();
      const auto start = clock::now();
      for (const Vector& x : inputs)
        reference.push_back(per_cycle_sim.run(quantized, x, use_predictor));
      per_inference.wall_seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      per_inference.allocs = g_allocs.load() - allocs_before;
      per_inference.samples = samples;
      for (const SimResult& r : reference)
        per_inference.cycles += r.total_cycles;
    }

    // ---- compiled engine ----
    EngineStats compiled_stats;
    bool identical = true;
    {
      const CompiledNetwork compiled(quantized, arch, use_predictor);
      // Warm-up inference (validated) so the measured loop shows the
      // steady state; its result is checked but not timed.
      identical =
          sim.run(compiled, inputs[0], ValidationMode::kFull) ==
          reference[0];
      const std::uint64_t allocs_before = g_allocs.load();
      const auto start = clock::now();
      for (std::size_t i = 0; i < samples; ++i) {
        const SimResult r =
            sim.run(compiled, inputs[i], ValidationMode::kOff);
        compiled_stats.cycles += r.total_cycles;
        identical = identical && r == reference[i];
      }
      compiled_stats.wall_seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      compiled_stats.allocs = g_allocs.load() - allocs_before;
      compiled_stats.samples = samples;
    }

    // ---- per-cycle reference vs event-driven engines ----
    // CI gates the event/per-cycle rate ratio, so the two timing
    // windows must see the same machine: the rounds alternate between
    // the engines, so frequency drift and scheduler noise land on both
    // sides equally instead of skewing whichever engine ran second,
    // and each side's window is widened to ride out noise at the
    // small --samples CI uses.
    EngineStats per_cycle_stats;
    EngineStats event_stats;
    bool event_identical = true;
    EventCore::Stats event_core_stats;
    struct ThreadPoint {
      std::size_t threads = 0;
      double inf_per_sec = 0.0;
    };
    std::vector<ThreadPoint> event_thread_scaling;
    {
      const CompiledNetwork compiled(quantized, arch, use_predictor);
      AcceleratorSim per_cycle_sim(arch);
      per_cycle_sim.set_stepping_mode(SteppingMode::kPerCycle);
      AcceleratorSim event_sim(arch);
      event_sim.set_stepping_mode(SteppingMode::kEvent);
      // Warm-up grows both engines' scratch to steady capacity.
      identical = identical &&
                  per_cycle_sim.run(compiled, inputs[0],
                                    ValidationMode::kOff) == reference[0];
      event_identical =
          event_sim.run(compiled, inputs[0], ValidationMode::kOff) ==
          reference[0];
      // The wake-list economics (event_core_stats) are reported for a
      // single pass over the distinct inputs, not inflated by rounds.
      const std::size_t rounds = std::max<std::size_t>(1, 64 / samples);
      event_sim.reset_event_core_stats();
      for (std::size_t round = 0; round < rounds; ++round) {
        {
          const std::uint64_t a0 = g_allocs.load();
          const auto t0 = clock::now();
          for (std::size_t i = 0; i < samples; ++i) {
            const SimResult r = per_cycle_sim.run(compiled, inputs[i],
                                                  ValidationMode::kOff);
            per_cycle_stats.cycles += r.total_cycles;
            identical = identical && r == reference[i];
          }
          per_cycle_stats.wall_seconds +=
              std::chrono::duration<double>(clock::now() - t0).count();
          per_cycle_stats.allocs += g_allocs.load() - a0;
        }
        {
          const std::uint64_t a0 = g_allocs.load();
          const auto t0 = clock::now();
          for (std::size_t i = 0; i < samples; ++i) {
            const SimResult r =
                event_sim.run(compiled, inputs[i], ValidationMode::kOff);
            event_stats.cycles += r.total_cycles;
            event_identical = event_identical && r == reference[i];
          }
          event_stats.wall_seconds +=
              std::chrono::duration<double>(clock::now() - t0).count();
          event_stats.allocs += g_allocs.load() - a0;
          if (round == 0) event_core_stats = event_sim.event_core_stats();
        }
      }
      per_cycle_stats.samples = samples * rounds;
      event_stats.samples = samples * rounds;

      // Shard-thread sweep: wall-clock only — every point re-checked
      // bit-identical against the per-cycle reference.
      const std::size_t hw = std::max<std::size_t>(
          1, std::thread::hardware_concurrency());
      std::vector<std::size_t> thread_counts;
      for (std::size_t t = 1; t < hw; t *= 2) thread_counts.push_back(t);
      thread_counts.push_back(hw);
      for (const std::size_t threads : thread_counts) {
        event_sim.set_sim_options(
            SimOptions{.stepping = SteppingMode::kEvent,
                       .sim_threads = threads});
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < samples; ++i) {
          const SimResult r =
              event_sim.run(compiled, inputs[i], ValidationMode::kOff);
          event_identical = event_identical && r == reference[i];
        }
        const double secs =
            std::chrono::duration<double>(clock::now() - t0).count();
        event_thread_scaling.push_back(
            {threads, secs > 0.0 ? static_cast<double>(samples) / secs
                                 : 0.0});
      }
      identical = identical && event_identical;
    }

    // ---- cached single-shot sweep (System::simulate profile) ----
    // Same work as per_inference minus the recompile: cache hit + full
    // golden validation on every call.
    EngineStats cached_stats;
    {
      ModelZoo zoo(arch);
      const std::uint64_t allocs_before = g_allocs.load();
      const auto start = clock::now();
      for (std::size_t i = 0; i < samples; ++i) {
        const SimResult r = sim.run(*zoo.get(quantized, use_predictor),
                                    inputs[i], ValidationMode::kFull);
        cached_stats.cycles += r.total_cycles;
        identical = identical && r == reference[i];
      }
      cached_stats.wall_seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      cached_stats.allocs = g_allocs.load() - allocs_before;
      cached_stats.samples = samples;
    }

    // ---- arena engine (allocation-free steady state) ----
    EngineStats arena_stats;
    {
      const CompiledNetwork compiled(quantized, arch, use_predictor);
      ResultArena arena(compiled);
      // Warm-up: grows the simulator-side scratch to steady capacity.
      identical = identical &&
                  sim.run(compiled, inputs[0], arena,
                          ValidationMode::kOff) == reference[0];
      const std::uint64_t allocs_before = g_allocs.load();
      const auto start = clock::now();
      for (std::size_t i = 0; i < samples; ++i) {
        const SimResult& r =
            sim.run(compiled, inputs[i], arena, ValidationMode::kOff);
        arena_stats.cycles += r.total_cycles;
        identical = identical && r == reference[i];
      }
      arena_stats.wall_seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      arena_stats.allocs = g_allocs.load() - allocs_before;
      arena_stats.samples = samples;
    }

    // ---- analytic engine (functional model + schedule math) ----
    // Same compiled image, other backend: predictions must be
    // bit-exact vs the cycle reference; wall-clock is the model-zoo
    // serving speedup.
    EngineStats analytic_stats;
    bool analytic_exact = true;
    CycleError analytic_error;
    {
      const CompiledNetwork compiled(quantized, arch, use_predictor);
      const std::unique_ptr<ExecutionEngine> analytic =
          make_engine(EngineKind::kAnalytic, arch);
      ResultArena arena(compiled);
      // Warm-up grows the engine-side scratch to steady capacity.
      analytic_exact = predictions_match(
          analytic->run(compiled, inputs[0], arena, ValidationMode::kOff),
          reference[0]);
      // Untimed: every sample's estimates against the per-cycle counts.
      for (std::size_t i = 0; i < samples; ++i)
        analytic_error.add(analytic->run(compiled, inputs[i], arena,
                                         ValidationMode::kOff),
                           reference[i]);
      // The analytic engine is fast enough that one pass over a small
      // --samples set lasts only microseconds — far too short a window
      // for a wall-clock ratio that CI gates on (one scheduler
      // preemption inside it would fake a 10-40x slowdown). Loop the
      // same inputs until the measured window holds a few hundred
      // inferences.
      const std::size_t rounds = std::max<std::size_t>(1, 512 / samples);
      const std::uint64_t allocs_before = g_allocs.load();
      const auto start = clock::now();
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < samples; ++i) {
          const SimResult& r = analytic->run(compiled, inputs[i], arena,
                                             ValidationMode::kOff);
          analytic_stats.cycles += r.total_cycles;
          analytic_exact =
              analytic_exact && predictions_match(r, reference[i]);
        }
      }
      analytic_stats.wall_seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      analytic_stats.allocs = g_allocs.load() - allocs_before;
      analytic_stats.samples = samples * rounds;
    }

    // ---- batch arena path: marginal allocations per inference ----
    // keep_results=false batches fold arena-held results into worker
    // accumulators; setup (threads, sims, arenas, first validated
    // inference) allocates, so measure the same batch at half and full
    // size and report the marginal cost of the extra inferences.
    double batch_marginal_allocs = 0.0;
    {
      Dataset batch_data;
      batch_data.inputs = Matrix(samples, 784);
      for (std::size_t i = 0; i < samples; ++i)
        std::copy(inputs[i].begin(), inputs[i].end(),
                  batch_data.inputs.row(i).begin());
      BatchOptions options;
      options.num_threads = 1;  // deterministic setup cost
      options.use_predictor = use_predictor;
      options.keep_results = false;
      const auto count = [&](std::size_t n) {
        BatchOptions o = options;
        o.max_samples = n;
        const BatchRunner runner(arch, o);
        const std::uint64_t before = g_allocs.load();
        (void)runner.run(quantized, batch_data);
        return g_allocs.load() - before;
      };
      const std::size_t half = std::max<std::size_t>(samples / 2, 1);
      (void)count(half);  // warm process-global state
      const std::uint64_t small = count(half);
      const std::uint64_t large = count(samples);
      batch_marginal_allocs =
          samples > half ? static_cast<double>(large - small) /
                               static_cast<double>(samples - half)
                         : 0.0;
    }

    // ---- batch thread scaling (ROADMAP: measure on real multi-core
    // hardware) ----
    // inf/s at 1,2,4,…,hardware_concurrency worker threads on the
    // cycle backend (keep_results=false). On a single-core container
    // this records ≈1x; wherever CI runs multi-core it records the
    // real scaling curve alongside the engine numbers.
    struct ScalingPoint {
      std::size_t threads = 0;
      double inf_per_sec = 0.0;
    };
    std::vector<ScalingPoint> scaling;
    {
      const std::size_t hw = std::max<std::size_t>(
          1, std::thread::hardware_concurrency());
      // Enough work that every worker runs dozens of inferences even
      // at the widest point — otherwise thread spawn/join dominates
      // and the curve records startup noise, not scaling.
      const std::size_t scaling_samples =
          std::max(samples, 32 * hw);
      Dataset batch_data;
      batch_data.inputs = Matrix(scaling_samples, 784);
      for (std::size_t i = 0; i < scaling_samples; ++i)
        std::copy(inputs[i % samples].begin(), inputs[i % samples].end(),
                  batch_data.inputs.row(i).begin());
      // Powers of two below hw, then hw itself (so the top point is
      // always measured, including non-power-of-two machines).
      std::vector<std::size_t> thread_counts;
      for (std::size_t t = 1; t < hw; t *= 2) thread_counts.push_back(t);
      thread_counts.push_back(hw);
      for (const std::size_t threads : thread_counts) {
        BatchOptions o;
        o.num_threads = threads;
        o.use_predictor = use_predictor;
        o.keep_results = false;
        o.max_samples = scaling_samples;
        const BatchRunner runner(arch, o);
        const BatchResult r = runner.run(quantized, batch_data);
        scaling.push_back({r.num_threads, r.inferences_per_second()});
      }
    }

    const auto ratio = [](double a, double b) {
      return a > 0.0 && b > 0.0 ? a / b : 0.0;
    };
    const double speedup =
        ratio(per_inference.wall_seconds, compiled_stats.wall_seconds);
    const double cached_sweep_speedup =
        ratio(per_inference.wall_seconds, cached_stats.wall_seconds);
    // Rate ratio, not wall ratio: the analytic loop runs `rounds`
    // passes over the same inputs to widen its timing window.
    const double analytic_speedup =
        ratio(analytic_stats.inferences_per_sec(),
              compiled_stats.inferences_per_sec());
    // Single-threaded event core vs the per-cycle reference, CI-gated
    // >= 1.5.
    const double event_speedup =
        ratio(event_stats.inferences_per_sec(),
              per_cycle_stats.inferences_per_sec());
    const double event_cycle_ratio =
        event_core_stats.cycles_ticked > 0
            ? static_cast<double>(event_core_stats.events_executed) /
                  static_cast<double>(event_core_stats.cycles_ticked)
            : 0.0;

    std::string json;
    {
      std::ostringstream os;
      os << "{\n  \"samples\": " << samples << ",\n  \"hidden\": " << hidden
         << ",\n  \"uv\": \"" << (use_predictor ? "on" : "off")
         << "\",\n  \"simd_isa\": \"" << to_string(active_simd_isa())
         << "\",\n";
      print_engine(os, "per_inference", per_inference);
      os << ",\n";
      print_engine(os, "compiled", compiled_stats);
      os << ",\n";
      print_engine(os, "per_cycle_engine", per_cycle_stats);
      os << ",\n";
      print_engine(os, "event_engine", event_stats);
      os << ",\n  \"event_core\": {\"events_executed\": "
         << event_core_stats.events_executed
         << ", \"cycles_ticked\": " << event_core_stats.cycles_ticked
         << ", \"event_cycle_ratio\": " << event_cycle_ratio << "}";
      os << ",\n  \"sim_threads_scaling\": [";
      for (std::size_t i = 0; i < event_thread_scaling.size(); ++i) {
        os << (i ? ", " : "")
           << "{\"threads\": " << event_thread_scaling[i].threads
           << ", \"inferences_per_sec\": "
           << event_thread_scaling[i].inf_per_sec << "}";
      }
      os << "],\n";
      print_engine(os, "cached_sweep", cached_stats);
      os << ",\n";
      print_engine(os, "arena", arena_stats);
      os << ",\n";
      print_engine(os, "analytic", analytic_stats);
      os << ",\n  \"speedup\": " << speedup
         << ",\n  \"cached_sweep_speedup\": " << cached_sweep_speedup
         << ",\n  \"analytic_speedup\": " << analytic_speedup
         << ",\n  \"event_speedup\": " << event_speedup
         << ",\n  \"event_bit_identical\": "
         << (event_identical ? "true" : "false")
         << ",\n  \"analytic_bit_exact\": "
         << (analytic_exact ? "true" : "false")
         << ",\n  \"analytic_cycle_error\": " << analytic_error
         << ",\n  \"arena_allocs_per_inference\": "
         << arena_stats.allocs_per_inference()
         << ",\n  \"batch_arena_marginal_allocs_per_inference\": "
         << batch_marginal_allocs
         << ",\n  \"batch_scaling\": [";
      for (std::size_t i = 0; i < scaling.size(); ++i) {
        os << (i ? ", " : "") << "{\"threads\": " << scaling[i].threads
           << ", \"inferences_per_sec\": " << scaling[i].inf_per_sec << "}";
      }
      os << "],\n  \"bit_identical\": " << (identical ? "true" : "false")
         << "\n}\n";
      json = os.str();
    }
    std::cout << json;
    if (!json_out.empty()) {
      std::ofstream out(json_out);
      out << json;
      std::cout << "# written to " << json_out << "\n";
    }
    if (!identical) {
      std::cerr << "error: an engine diverged from the per-inference "
                   "engine\n";
      return 1;
    }
    if (!event_identical) {
      std::cerr << "error: the event-driven engine diverged from the "
                   "per-cycle reference\n";
      return 1;
    }
    if (!analytic_exact) {
      std::cerr << "error: the analytic engine's predictions diverged "
                   "from the cycle engine (activations/labels must be "
                   "bit-exact)\n";
      return 1;
    }
    if (arena_stats.allocs != 0) {
      std::cerr << "error: arena path performed "
                << arena_stats.allocs << " heap allocations over "
                << samples << " inferences (expected 0)\n";
      return 1;
    }
    if (analytic_stats.allocs != 0) {
      std::cerr << "error: analytic arena path performed "
                << analytic_stats.allocs << " heap allocations over "
                << analytic_stats.samples << " inferences (expected 0)\n";
      return 1;
    }
    if (batch_marginal_allocs != 0.0) {
      std::cerr << "error: batch arena path allocated "
                << batch_marginal_allocs
                << " per marginal inference (expected 0)\n";
      return 1;
    }
    return 0;
  } catch (const sparsenn::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
