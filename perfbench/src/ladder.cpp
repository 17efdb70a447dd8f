// Workload generation and the check ladder every workload runs before
// it times anything.

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "harness.hpp"
#include "nn/predictor.hpp"
#include "nn/trainer.hpp"

namespace perfbench {

using namespace sparsenn;

namespace {

/// Distinct images per sweep. Each is checked against the cycle engine
/// and the analytic engine once, and the timed loops draw from them.
constexpr std::size_t kSweepImages = 128;
/// Calibration images for the sweep model's quantisation.
constexpr std::size_t kCalibrationImages = 8;
constexpr std::size_t kZooModels = 8;
constexpr std::size_t kZooInputs = 64;
constexpr double kZooZipf = 1.0;

/// The paper's 784-1000-1000-1000-10 network with random weights and
/// rank-15 random predictors on the hidden layers: throughput does not
/// depend on trained accuracy, and training one costs far more than a
/// whole run.
ModelSpec sweep_model(const Dataset& calibration_set, bool use_predictor,
                      Rng& rng) {
  Network net{five_layer_topology(1000), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto sizes = net.layer_sizes();
    net.set_predictor(l,
                      Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  return {std::move(net), calibration_set.inputs, ArchParams::paper(),
          use_predictor};
}

/// The reduced 16-PE configuration the serving tests use.
ArchParams zoo_arch() {
  ArchParams p;
  p.num_pes = 16;
  p.router_levels = 2;
  p.w_mem_kb_per_pe = 16;
  p.u_mem_kb_per_pe = 4;
  p.v_mem_kb_per_pe = 4;
  p.act_regs_per_pe = 16;
  return p;
}

/// Small {24, h, 18, 6} network with rank-4 predictors; each model has
/// its own hidden width, so the zoo holds distinct images.
ModelSpec zoo_model(std::size_t index, Rng& rng) {
  const std::size_t hidden = 20 + 2 * index;
  Network net{{24, hidden, 18, 6}, rng};
  net.set_predictor(0, Predictor::random(hidden, 24, 4, rng));
  net.set_predictor(1, Predictor::random(18, hidden, 4, rng));
  Matrix calibration(4, 24);
  for (float& v : calibration.flat())
    v = static_cast<float>(rng.uniform(0.0, 1.0));
  return {std::move(net), std::move(calibration), zoo_arch(), true};
}

double zero_fraction(const std::vector<std::vector<float>>& inputs) {
  std::size_t zeros = 0, total = 0;
  for (const auto& x : inputs) {
    for (const float v : x) zeros += v == 0.0f;
    total += x.size();
  }
  return total ? static_cast<double>(zeros) / static_cast<double>(total)
               : 0.0;
}

Workload make_sweep(const std::string& name, std::uint64_t seed,
                    DatasetVariant variant, bool use_predictor) {
  Workload w;
  w.name = name;
  w.seed = seed;
  DatasetOptions data;
  data.train_size = kCalibrationImages;
  data.test_size = kSweepImages;
  data.seed = seed;
  const DatasetSplit split = make_dataset(variant, data);
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    const auto image = split.test.image(i);
    w.inputs.emplace_back(image.begin(), image.end());
  }
  Rng rng{seed};
  w.models.push_back(sweep_model(split.train, use_predictor, rng));
  w.popularity_cdf = {1.0};
  char line[256];
  std::snprintf(line, sizeof line,
                "model 784-1000-1000-1000-10 random weights, rank-15 "
                "predictors, uv_%s, 64 PEs; %zu %s images, zero pixels %.4f",
                use_predictor ? "on" : "off", w.inputs.size(),
                to_string(variant).c_str(), zero_fraction(w.inputs));
  w.description = line;
  return w;
}

Workload make_zoo(std::uint64_t seed) {
  Workload w;
  w.name = "serve_zoo";
  w.seed = seed;
  w.serving = true;
  Rng rng{seed};
  for (std::size_t m = 0; m < kZooModels; ++m)
    w.models.push_back(zoo_model(m, rng));
  w.inputs.assign(kZooInputs, std::vector<float>(24, 0.0f));
  for (auto& x : w.inputs)
    for (float& v : x)
      v = rng.bernoulli(0.4) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));
  double total = 0.0;
  for (std::size_t k = 0; k < kZooModels; ++k)
    w.popularity_cdf.push_back(
        total += 1.0 / std::pow(static_cast<double>(k + 1), kZooZipf));
  for (double& c : w.popularity_cdf) c /= total;
  char line[256];
  std::snprintf(line, sizeof line,
                "%zu models {24,20+2i,18,6} rank-4 predictors, uv_on, 16 "
                "PEs, zipf(%.1f) popularity; %zu inputs, zero fraction %.4f",
                kZooModels, kZooZipf, w.inputs.size(),
                zero_fraction(w.inputs));
  w.description = line;
  return w;
}

/// Every layer's activations from the functional fixed-point model.
std::vector<std::vector<std::int16_t>> forward_all(
    const QuantizedNetwork& net, std::span<const float> x,
    bool use_predictor) {
  std::vector<std::vector<std::int16_t>> layers;
  std::vector<std::int16_t> act = net.quantize_input(x);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    act = net.forward_layer(l, act, use_predictor).activations;
    layers.push_back(act);
  }
  return layers;
}

bool forward_matches(const std::vector<std::vector<std::int16_t>>& forward,
                     const SimResult& cycle) {
  if (forward.size() != cycle.layers.size()) return false;
  for (std::size_t l = 0; l < forward.size(); ++l)
    if (forward[l] != cycle.layers[l].activations) return false;
  return !forward.empty() && forward.back() == cycle.output;
}

/// Everything but the modelled cycle/event estimates.
bool predictions_match(const SimResult& a, const SimResult& b) {
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

void accumulate(const SimResult& cycle, const SimResult& analytic,
                ExactCounts& exact) {
  ++exact.inferences;
  exact.cycles += cycle.total_cycles;
  for (const LayerSimResult& l : cycle.layers) {
    exact.v_cycles += l.v_cycles;
    exact.u_cycles += l.u_cycles;
    exact.w_cycles += l.w_cycles;
    exact.w_flit_hops += l.w_noc.flit_hops;
    exact.w_conflicts += l.w_noc.arbitration_conflicts;
    exact.w_credit_stalls += l.w_noc.credit_stalls;
    exact.v_flit_hops += l.v_noc.flit_hops;
    exact.macs += l.events.macs;
    exact.active_rows += l.active_rows;
    exact.nnz_inputs += l.nnz_inputs;
  }
  exact.analytic_err_sum +=
      std::fabs(static_cast<double>(analytic.total_cycles) -
                static_cast<double>(cycle.total_cycles)) /
      static_cast<double>(cycle.total_cycles);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "sweep_sparse")
    return make_sweep(name, seed, DatasetVariant::kBasic, true);
  if (name == "sweep_dense")
    return make_sweep(name, seed, DatasetVariant::kBgRand, false);
  if (name == "serve_zoo") return make_zoo(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (sweep_sparse, sweep_dense, serve_zoo)");
}

std::size_t draw(const std::vector<double>& cdf, double u) {
  for (std::size_t k = 0; k < cdf.size(); ++k)
    if (u < cdf[k]) return k;
  return cdf.size() - 1;
}

std::unique_ptr<QuantizedNetwork> quantize(const ModelSpec& spec,
                                           Tracer& tracer,
                                           std::uint64_t parent) {
  const Span span(tracer, SpanKind::kQuantize, parent);
  return std::make_unique<QuantizedNetwork>(spec.net, spec.calibration);
}

void build_engines(const Workload& w, DirectRig& rig, Tracer& tracer,
                   std::uint64_t parent) {
  rig.images.clear();
  rig.arenas.clear();
  for (std::size_t m = 0; m < w.models.size(); ++m) {
    const Span span(tracer, SpanKind::kCompile, parent);
    rig.images.push_back(std::make_unique<CompiledNetwork>(
        *rig.nets[m], w.models[m].arch, w.models[m].use_predictor));
  }
  rig.arenas.reserve(rig.images.size());
  for (const auto& image : rig.images) rig.arenas.emplace_back(*image);
  // Every model of a workload shares one arch.
  rig.sim = std::make_unique<AcceleratorSim>(w.models.front().arch);
  rig.analytic = std::make_unique<AnalyticEngine>(w.models.front().arch);
}

Checked check_ladder(const Workload& w, DirectRig& rig,
                     std::size_t oracle_samples, Tracer& tracer,
                     std::uint64_t parent) {
  const Span check(tracer, SpanKind::kCheck, parent);
  Checked out;
  out.golden.resize(w.models.size());
  out.cycle.resize(w.models.size());
  rig.sim->reset_event_core_stats();
  for (std::size_t m = 0; m < w.models.size(); ++m) {
    for (const std::vector<float>& x : w.inputs) {
      const SimResult* cycle = nullptr;
      {
        const Span span(tracer, SpanKind::kCycleRun, check.id());
        cycle = &rig.sim->run(*rig.images[m], x, rig.arenas[m],
                              ValidationMode::kOff);
      }
      out.cycle[m].push_back(*cycle);
      const SimResult* analytic = nullptr;
      {
        const Span span(tracer, SpanKind::kAnalyticRun, check.id());
        analytic = &rig.analytic->run(*rig.images[m], x, rig.arenas[m],
                                      ValidationMode::kOff);
      }
      out.golden[m].push_back(*analytic);
      std::vector<std::vector<std::int16_t>> forward;
      {
        const Span span(tracer, SpanKind::kForward, check.id());
        forward = forward_all(*rig.nets[m], x, w.models[m].use_predictor);
      }
      ++out.tally.attempted;
      if (!forward_matches(forward, out.cycle[m].back()) ||
          !predictions_match(out.cycle[m].back(), out.golden[m].back()))
        ++out.tally.wrong;
      accumulate(out.cycle[m].back(), out.golden[m].back(), out.exact);
    }
  }
  out.exact.events_executed = rig.sim->event_core_stats().events_executed;
  out.exact.cycles_ticked = rig.sim->event_core_stats().cycles_ticked;

  // The per-cycle oracle is slow (about 3x the event engine), so it
  // checks a seeded sample of the pairs.
  AcceleratorSim oracle(w.models.front().arch);
  oracle.set_stepping_mode(SteppingMode::kPerCycle);
  Rng rng{w.seed ^ 0x0c0ffee5eedULL};
  for (std::size_t k = 0; k < oracle_samples; ++k) {
    const std::size_t m = rng.uniform_index(w.models.size());
    const std::size_t i = rng.uniform_index(w.inputs.size());
    SimResult reference;
    {
      const Span span(tracer, SpanKind::kOracleRun, check.id());
      reference = oracle.run(*rig.images[m], w.inputs[i], ValidationMode::kOff);
    }
    ++out.tally.attempted;
    ++out.oracle_checked;
    if (reference != out.cycle[m][i]) ++out.tally.wrong;
  }
  return out;
}

void report_exact(const ExactCounts& e, PassReport& report) {
  std::printf(
      "exact sums over %llu checked inferences: sim.cycles=%llu "
      "sim.v_cycles=%llu sim.u_cycles=%llu sim.w_cycles=%llu "
      "noc.w_flit_hops=%llu noc.w_conflicts=%llu noc.w_credit_stalls=%llu "
      "noc.v_flit_hops=%llu pe.macs=%llu pe.active_rows=%llu "
      "pe.nnz_inputs=%llu sim.events_executed=%llu sim.cycles_ticked=%llu\n",
      static_cast<unsigned long long>(e.inferences),
      static_cast<unsigned long long>(e.cycles),
      static_cast<unsigned long long>(e.v_cycles),
      static_cast<unsigned long long>(e.u_cycles),
      static_cast<unsigned long long>(e.w_cycles),
      static_cast<unsigned long long>(e.w_flit_hops),
      static_cast<unsigned long long>(e.w_conflicts),
      static_cast<unsigned long long>(e.w_credit_stalls),
      static_cast<unsigned long long>(e.v_flit_hops),
      static_cast<unsigned long long>(e.macs),
      static_cast<unsigned long long>(e.active_rows),
      static_cast<unsigned long long>(e.nnz_inputs),
      static_cast<unsigned long long>(e.events_executed),
      static_cast<unsigned long long>(e.cycles_ticked));
  const double n = static_cast<double>(e.inferences);
  const auto per_inf = [&](const char* name, std::uint64_t sum,
                           const char* unit) {
    report.layer[name] = {static_cast<double>(sum) / n, unit};
  };
  per_inf("sim.cycles_per_inf", e.cycles, "count");
  per_inf("sim.v_cycles_per_inf", e.v_cycles, "count");
  per_inf("sim.u_cycles_per_inf", e.u_cycles, "count");
  per_inf("sim.w_cycles_per_inf", e.w_cycles, "count");
  per_inf("noc.w_flit_hops_per_inf", e.w_flit_hops, "count");
  per_inf("noc.w_conflicts_per_inf", e.w_conflicts, "count");
  per_inf("noc.w_credit_stalls_per_inf", e.w_credit_stalls, "count");
  per_inf("noc.v_flit_hops_per_inf", e.v_flit_hops, "count");
  per_inf("pe.macs_per_inf", e.macs, "count");
  per_inf("pe.active_rows_per_inf", e.active_rows, "count");
  per_inf("pe.nnz_inputs_per_inf", e.nnz_inputs, "count");
  report.layer["sim.event_ratio"] = {
      static_cast<double>(e.events_executed) /
          static_cast<double>(e.cycles_ticked),
      "ratio"};
  report.e2e["cycles_per_inf"] = {static_cast<double>(e.cycles) / n, "cycles"};
  report.e2e["analytic_err_pct"] = {100.0 * e.analytic_err_sum / n, "%"};
}

}  // namespace perfbench
