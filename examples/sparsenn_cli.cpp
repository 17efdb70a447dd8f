// sparsenn_cli — command-line front end for the library.
//
//   sparsenn_cli train    [--variant v] [--rank r] [--epochs e]
//                         [--kind none|svd|end_to_end] [--hidden h]
//                         [--layers 3|5] [--out model.bin]
//   sparsenn_cli eval     --model model.bin [--variant v]
//   sparsenn_cli simulate --model model.bin [--variant v] [--samples n]
//                         [--uv on|off|both] [--trace trace.csv]
//                         [--engine cycle|analytic]
//   sparsenn_cli batch    --model model.bin [--variant v] [--samples n]
//                         [--threads t] [--uv on|off]
//                         [--engine cycle|analytic]
//   sparsenn_cli serve-bench --model model.bin [--variant v]
//                         [--clients n] [--requests n] [--workers w]
//                         [--max-batch b]
//                         [--uv on|off] [--engine cycle|analytic]
//                         [--deadline-us us] [--priority-mix h,n,b]
//                         [--breaker-window n] [--breaker-threshold f]
//                         [--degraded on|off]
//   sparsenn_cli info     [--model model.bin]
//
// `v` is basic|rot|bg_rand. Every command also takes --simd
// auto|scalar: `scalar` forces the scalar reference kernels (same
// effect as SPARSENN_FORCE_SCALAR=1) so experiments pin their
// dispatch. A flag no command reads, or a value outside a flag's
// list, is a usage error (exit 2), so a typo never runs with the
// default.
//
// `train` produces a serialized model; `eval` reports float and
// quantised TER; `simulate` deploys it on the 64-PE model; `batch`
// shards a test batch across worker threads (each with a private
// engine) and reports aggregate throughput; `info` prints the
// architecture configuration (and, with a model, its topology).
// `--engine` picks the cost backend (sim/engine.hpp): `cycle` is the
// cycle-accurate simulator, `analytic` the closed-form fast path with
// bit-identical predictions, per-layer cycle counts equal to the cycle
// engine's on the default buffered fabric (low on contended fabrics)
// and estimated event counts.
// serve-bench's overload knobs exercise the control tier: a
// per-request deadline, a high,normal,best_effort request mix (with
// best-effort admission watermarked so it sheds first), a per-model
// circuit breaker, and the analytic-fallback degraded mode.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "arch/area.hpp"
#include "common/cli_args.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "data/dataset.hpp"
#include "nn/quantized.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "serve/frontend.hpp"
#include "sim/trace.hpp"

namespace {

using namespace sparsenn;

/// `--key value` parser (src/common/cli_args.hpp): a trailing flag
/// with no value is a UsageError → exit 2, not a silent default.
using Args = CliArgs;

/// --variant basic|rot|bg_rand; anything else is a UsageError (exit 2).
DatasetVariant parse_variant(const Args& args) {
  const std::string name = args.get("variant", "basic");
  if (name == "basic") return DatasetVariant::kBasic;
  if (name == "rot") return DatasetVariant::kRot;
  if (name == "bg_rand") return DatasetVariant::kBgRand;
  throw UsageError("--variant takes basic|rot|bg_rand, got '" + name + "'");
}

/// --kind none|svd|end_to_end; anything else is a UsageError (exit 2).
PredictorKind parse_kind(const Args& args) {
  const std::string name = args.get("kind", "end_to_end");
  if (name == "none") return PredictorKind::kNone;
  if (name == "svd") return PredictorKind::kSvd;
  if (name == "end_to_end") return PredictorKind::kEndToEnd;
  throw UsageError("--kind takes none|svd|end_to_end, got '" + name + "'");
}

/// --engine cycle|analytic; anything else is a UsageError (exit 2).
EngineKind parse_engine(const Args& args) {
  const std::string name = args.get("engine", "cycle");
  const std::optional<EngineKind> kind = parse_engine_kind(name);
  if (!kind) {
    throw UsageError("--engine takes cycle|analytic, got '" + name + "'");
  }
  return *kind;
}

/// --simd auto|scalar (any command): `scalar` forces the scalar
/// reference kernels (same effect as SPARSENN_FORCE_SCALAR=1) so
/// experiments pin their dispatch; anything else is a UsageError
/// (exit 2), mirroring --engine.
void apply_simd_flag(const Args& args) {
  const std::string name = args.get("simd", "auto");
  if (name == "scalar") {
    force_scalar_kernels(true);
  } else if (name != "auto") {
    throw UsageError("--simd takes auto|scalar, got '" + name + "'");
  }
}

DatasetSplit make_split(const Args& args) {
  DatasetOptions data;
  data.train_size = args.get_size("train-size", 3000);
  data.test_size = args.get_size("test-size", 600);
  return make_dataset(parse_variant(args), data);
}

/// The deployment preamble shared by eval/simulate/batch: load the
/// model, regenerate its dataset, quantise on the training split.
struct LoadedModel {
  Network net;
  DatasetSplit split;
  QuantizedNetwork quantized;
};

LoadedModel load_model(const Args& args) {
  Network net = load_network(args.get("model", "model.bin"));
  DatasetSplit split = make_split(args);
  QuantizedNetwork quantized(net, split.train.inputs);
  return {std::move(net), std::move(split), std::move(quantized)};
}

int cmd_train(const Args& args) {
  TrainOptions train;
  train.kind = parse_kind(args);
  train.rank = args.get_size("rank", 15);
  train.epochs = args.get_size("epochs", 4);

  const std::size_t hidden = args.get_size("hidden", 512);
  const std::size_t layers = args.get_size("layers", 3);
  if (layers != 3 && layers != 5) {
    throw UsageError("--layers takes 3|5, got '" + args.get("layers", "") +
                     "'");
  }
  const auto topology = layers == 5 ? five_layer_topology(hidden)
                                    : three_layer_topology(hidden);

  const DatasetSplit split = make_split(args);
  std::cout << "Training " << to_string(train.kind) << " rank "
            << train.rank << " on " << to_string(split.variant) << "...\n";
  const TrainedModel model = train_network(topology, split, train);
  const EvalResult& eval = model.report.final_eval;
  std::cout << "TER " << eval.test_error_rate << "% in "
            << model.report.seconds << "s\n";
  for (std::size_t l = 0; l < eval.predicted_sparsity.size(); ++l)
    std::cout << "rho(" << l + 1 << ") = " << eval.predicted_sparsity[l]
              << "%\n";

  const std::string out = args.get("out", "model.bin");
  save_network(model.network, out);
  std::cout << "Model written to " << out << "\n";
  return 0;
}

int cmd_eval(const Args& args) {
  const LoadedModel model = load_model(args);
  const DatasetSplit& split = model.split;
  const EvalResult eval = evaluate(model.net, split.test);
  std::cout << "float TER     " << eval.test_error_rate << "%\n"
            << "quantised TER "
            << model.quantized.test_error_rate(split.test.inputs,
                                               split.test.labels)
            << "%\n";
  for (std::size_t l = 0; l < eval.predicted_sparsity.size(); ++l)
    std::cout << "rho(" << l + 1 << ") = " << eval.predicted_sparsity[l]
              << "%\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const EngineKind engine_kind = parse_engine(args);
  const std::string uv = args.get("uv", "both");
  if (uv != "on" && uv != "off" && uv != "both") {
    throw UsageError("simulate takes --uv on|off|both, got '" + uv + "'");
  }
  const LoadedModel model = load_model(args);
  const DatasetSplit& split = model.split;
  const QuantizedNetwork& quantized = model.quantized;

  const std::unique_ptr<ExecutionEngine> engine =
      make_engine(engine_kind, ArchParams::paper());
  TraceLog log;
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) engine->set_trace(&log);

  const std::size_t samples =
      std::min(args.get_size("samples", 3), split.test.size());
  if (samples == 0) {
    std::cerr << "error: the test split is empty, nothing to simulate\n";
    return 1;
  }
  const EnergyModel energy{ArchParams::paper()};

  // One compiled image per uv mode, shared by its samples; single runs
  // keep the golden-model cross-check on (ValidationMode::kFull is the
  // cycle engine's default), and the cross-check always runs against
  // the matching uv mode's golden path — uv_off validates against the
  // EIE-style all-rows model.
  std::cout << "engine: " << to_string(engine_kind) << "\n";
  Table table({"mode", "mean cycles", "mean power(mW)", "mean uJ"});
  for (const bool on : {true, false}) {
    if ((on && uv == "off") || (!on && uv == "on")) continue;
    const CompiledNetwork compiled(quantized, ArchParams::paper(), on);
    double cycles = 0.0;
    double mw = 0.0;
    double uj = 0.0;
    for (std::size_t i = 0; i < samples; ++i) {
      const SimResult run = engine->run(compiled, split.test.image(i));
      const EnergyReport r = energy.report(run.total_events());
      cycles += static_cast<double>(run.total_cycles);
      mw += r.avg_power_mw;
      uj += r.total_uj;
    }
    const auto n = static_cast<double>(samples);
    table.add_row({on ? "uv_on" : "uv_off", Cell{cycles / n, 0},
                   Cell{mw / n, 1}, Cell{uj / n, 2}});
  }
  table.print(std::cout);
  if (!trace_path.empty()) {
    log.save_csv(trace_path);
    std::cout << "Trace written to " << trace_path << "\n";
  }
  return 0;
}

int cmd_batch(const Args& args) {
  // Validate arguments before the expensive model load / dataset
  // regeneration / quantisation steps.
  const std::string uv = args.get("uv", "on");
  if (uv != "on" && uv != "off") {
    std::cerr << "error: batch takes --uv on|off (one mode per run), got '"
              << uv << "'\n";
    return 2;
  }
  BatchOptions options;
  options.num_threads = args.get_size("threads", 0);
  options.max_samples = args.get_size("samples", 64);
  options.use_predictor = uv == "on";
  options.keep_results = false;  // aggregate stats only
  options.engine = parse_engine(args);

  const LoadedModel model = load_model(args);
  const BatchRunner runner(ArchParams::paper(), options);
  const BatchResult result = runner.run(model.quantized, model.split.test);
  if (result.num_inferences == 0) {
    std::cerr << "error: the test split is empty, nothing to simulate\n";
    return 1;
  }
  const EnergyModel energy{ArchParams::paper()};
  const EnergyReport report = energy.report(result.total_events);
  const auto n = static_cast<double>(result.num_inferences);

  std::cout << "Batched " << result.num_inferences << " inferences ("
            << (options.use_predictor ? "uv_on" : "uv_off") << ", "
            << to_string(*options.engine) << " engine) across "
            << result.num_threads << " worker thread(s) in "
            << result.wall_seconds << "s\n";
  Table table({"threads", "inf/s", "cycles/inf", "mean uJ/inf",
               "quantised TER(%)"});
  table.add_row({std::to_string(result.num_threads),
                 Cell{result.inferences_per_second(), 1},
                 Cell{result.cycles_per_inference(), 0},
                 Cell{report.total_uj / n, 2},
                 Cell{result.error_rate_percent, 2}});
  table.print(std::cout);
  return 0;
}

int cmd_serve_bench(const Args& args) {
  // Closed-loop load test of the serving tier against a trained model:
  // every simulated client keeps one request outstanding, so the run
  // measures saturation throughput and full-load latency percentiles
  // through the real queue → micro-batcher → engine path.
  const std::string uv = args.get("uv", "on");
  if (uv != "on" && uv != "off") {
    std::cerr << "error: serve-bench takes --uv on|off, got '" << uv << "'\n";
    return 2;
  }
  const std::string degraded = args.get("degraded", "off");
  if (degraded != "on" && degraded != "off") {
    std::cerr << "error: serve-bench takes --degraded on|off, got '"
              << degraded << "'\n";
    return 2;
  }
  // --priority-mix h,n,b: relative request weights per class, applied
  // as a repeating pattern over the request stream.
  const std::string mix_text = args.get("priority-mix", "0,1,0");
  std::array<std::size_t, kNumPriorityClasses> mix{};
  {
    std::size_t parsed = 0, begin = 0;
    bool ok = std::count(mix_text.begin(), mix_text.end(), ',') == 2;
    while (ok && parsed < kNumPriorityClasses) {
      const std::size_t comma = mix_text.find(',', begin);
      const std::string token = mix_text.substr(
          begin,
          comma == std::string::npos ? std::string::npos : comma - begin);
      ok = !token.empty() && token.size() <= 9 &&
           token.find_first_not_of("0123456789") == std::string::npos;
      if (ok) mix[parsed++] = static_cast<std::size_t>(std::stoull(token));
      begin = comma == std::string::npos ? mix_text.size() : comma + 1;
    }
    if (!ok || mix[0] + mix[1] + mix[2] == 0) {
      std::cerr << "error: serve-bench takes --priority-mix h,n,b (three "
                   "request weights, sum > 0), got '"
                << mix_text << "'\n";
      return 2;
    }
  }
  const double breaker_threshold =
      std::atof(args.get("breaker-threshold", "0.5").c_str());
  if (!(breaker_threshold > 0.0) || breaker_threshold > 1.0) {
    std::cerr << "error: serve-bench takes --breaker-threshold in (0, 1], "
                 "got '"
              << args.get("breaker-threshold", "0.5") << "'\n";
    return 2;
  }
  ServingOptions options;
  options.num_workers = args.get_size("workers", 2);
  options.max_batch = args.get_size("max-batch", 8);
  options.engine = parse_engine(args);
  options.breaker.window = args.get_size("breaker-window", 0);
  options.breaker.failure_threshold = breaker_threshold;
  options.allow_degraded = degraded == "on";
  const std::uint64_t deadline_us = args.get_size("deadline-us", 0);
  const std::size_t clients = args.get_size("clients", 64);
  const std::size_t requests = args.get_size("requests", 512);
  options.queue_capacity = clients + options.max_batch;
  options.max_queued_per_model = options.queue_capacity;
  // With a mixed-priority stream, watermark best-effort admission so
  // it sheds first under depth (normal keeps the full bound, so the
  // default all-normal run stays shed-free).
  if (mix[class_index(Priority::kHigh)] +
          mix[class_index(Priority::kBestEffort)] >
      0) {
    options.class_watermarks = {1.0, 1.0, 0.6};
  }

  const LoadedModel model = load_model(args);
  const Dataset& test = model.split.test;
  if (test.size() == 0) {
    std::cerr << "error: the test split is empty, nothing to serve\n";
    return 1;
  }

  ServingFrontend frontend(options);
  const std::size_t handle =
      frontend.register_model(model.quantized, ArchParams::paper());

  using clock = std::chrono::steady_clock;
  std::vector<std::future<ServeResult>> in_flight;
  std::vector<double> latency_us;
  latency_us.reserve(requests);
  const std::size_t mix_total = mix[0] + mix[1] + mix[2];
  const auto submit = [&](std::size_t i) {
    SubmitOptions submit_options;
    submit_options.use_predictor = uv == "on";
    submit_options.deadline_us = deadline_us;
    const std::size_t slot = i % mix_total;
    submit_options.priority = slot < mix[0] ? Priority::kHigh
                              : slot < mix[0] + mix[1]
                                  ? Priority::kNormal
                                  : Priority::kBestEffort;
    return frontend.submit(handle, test.image(i % test.size()),
                           submit_options);
  };
  const auto start = clock::now();
  std::size_t issued = 0;
  for (std::size_t c = 0; c < std::min(clients, requests); ++c)
    in_flight.push_back(submit(issued++));
  while (!in_flight.empty()) {
    for (std::size_t s = 0; s < in_flight.size();) {
      if (in_flight[s].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++s;
        continue;
      }
      const ServeResult r = in_flight[s].get();
      if (r.status == ServeStatus::kOk) latency_us.push_back(r.total_us);
      if (issued < requests) {
        in_flight[s] = submit(issued++);
        ++s;
      } else {
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(s));
      }
    }
  }
  const double wall =
      std::chrono::duration<double>(clock::now() - start).count();
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  std::sort(latency_us.begin(), latency_us.end());
  const auto pct = [&](double p) {
    if (latency_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(latency_us.size() - 1));
    return latency_us[idx];
  };
  std::cout << "Served " << stats.completed << " inferences ("
            << (uv == "on" ? "uv_on" : "uv_off") << ", "
            << to_string(options.engine) << " engine, mix " << mix[0] << ","
            << mix[1] << "," << mix[2] << ", deadline " << deadline_us
            << "us, breaker "
            << (options.breaker.window
                    ? "window " + std::to_string(options.breaker.window)
                    : std::string("off"))
            << ", degraded " << degraded << ") from " << clients
            << " closed-loop clients in " << wall << "s\n";
  Table table({"workers", "inf/s", "p50 us", "p95 us", "p99 us",
               "mean batch", "shed(%)", "deadline", "circuit", "degraded",
               "failed", "restarts"});
  table.add_row({std::to_string(options.num_workers),
                 Cell{static_cast<double>(stats.completed) / wall, 1},
                 Cell{pct(50), 1}, Cell{pct(95), 1}, Cell{pct(99), 1},
                 Cell{stats.mean_batch_size(), 2},
                 Cell{100.0 * stats.shed_rate(), 2},
                 std::to_string(stats.deadline_shed),
                 std::to_string(stats.circuit_shed),
                 std::to_string(stats.degraded_completed),
                 std::to_string(stats.failed),
                 std::to_string(stats.workers_restarted)});
  table.print(std::cout);
  if (mix[class_index(Priority::kHigh)] +
          mix[class_index(Priority::kBestEffort)] >
      0) {
    // Per-class breakdown, highest class first — each row's own
    // accounting identity (submitted = completed + shed + failed)
    // holds exactly once the frontend is drained.
    Table classes({"class", "submitted", "completed", "shed", "failed"});
    for (const Priority pri : {Priority::kHigh, Priority::kNormal,
                               Priority::kBestEffort}) {
      const std::size_t c = class_index(pri);
      classes.add_row({to_string(pri),
                       std::to_string(stats.submitted_by_class[c]),
                       std::to_string(stats.completed_by_class[c]),
                       std::to_string(stats.shed_by_class[c]),
                       std::to_string(stats.failed_by_class[c])});
    }
    classes.print(std::cout);
  }
  return 0;
}

int cmd_info(const Args& args) {
  const ArchParams params = ArchParams::paper();
  const AreaBreakdown area = compute_area(params);
  std::cout << "SparseNN accelerator configuration\n"
            << "  PEs:              " << params.num_pes << "\n"
            << "  routers:          " << params.total_routers() << "\n"
            << "  W/U/V per PE:     " << params.w_mem_kb_per_pe << "/"
            << params.u_mem_kb_per_pe << "/" << params.v_mem_kb_per_pe
            << " KB\n"
            << "  clock:            " << params.clock_ns << " ns\n"
            << "  peak:             " << params.peak_gops() << " GOPs\n"
            << "  die area:         " << area.total_mm2() << " mm^2\n";
  const std::string model = args.get("model", "");
  if (!model.empty()) {
    const Network net = load_network(model);
    std::cout << "Model " << model << ": topology";
    for (std::size_t s : net.layer_sizes()) std::cout << " " << s;
    std::cout << ", " << net.parameter_count() << " parameters\n";
    for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
      if (net.has_predictor(l))
        std::cout << "  layer " << l + 1 << ": predictor rank "
                  << net.predictor(l).rank() << " (overhead "
                  << 100.0 * net.predictor(l).relative_cost() << "%)\n";
    }
  }
  return 0;
}

/// Every flag some command reads; main() rejects anything else.
constexpr std::string_view kKnownFlags[] = {
    // every command
    "simd",
    // dataset and model (train/eval/simulate/batch/serve-bench/info)
    "variant", "train-size", "test-size", "model",
    // train
    "kind", "rank", "epochs", "hidden", "layers", "out",
    // simulate/batch/serve-bench
    "samples", "uv", "engine", "trace", "threads",
    // serve-bench
    "clients", "requests", "workers", "max-batch", "deadline-us",
    "priority-mix", "breaker-window", "breaker-threshold", "degraded",
};

int usage() {
  std::cerr << "usage: sparsenn_cli {train|eval|simulate|batch|serve-bench|info} "
               "[--key value ...]\n"
               "see the header of examples/sparsenn_cli.cpp\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    // Parse inside the try: a malformed line (e.g. a trailing flag
    // with no value) is a UsageError → exit 2.
    const Args args(argc, argv, 2);
    args.reject_unknown(kKnownFlags);
    apply_simd_flag(args);
    if (command == "train") return cmd_train(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "batch") return cmd_batch(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
    if (command == "info") return cmd_info(args);
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
