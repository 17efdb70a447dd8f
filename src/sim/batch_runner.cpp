#include "sim/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/check.hpp"
#include "common/fork_join.hpp"
#include "sim/result_arena.hpp"

namespace sparsenn {

double BatchResult::inferences_per_second() const noexcept {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(num_inferences) / wall_seconds;
}

double BatchResult::cycles_per_inference() const noexcept {
  if (num_inferences == 0) return 0.0;
  return static_cast<double>(total_cycles) /
         static_cast<double>(num_inferences);
}

LayerBatchTotals::LayerBatchTotals(const LayerSimResult& layer) noexcept
    : v_cycles(layer.v_cycles),
      u_cycles(layer.u_cycles),
      w_cycles(layer.w_cycles),
      total_cycles(layer.total_cycles),
      nnz_inputs(layer.nnz_inputs),
      active_rows(layer.active_rows),
      events(layer.events) {}

LayerBatchTotals& LayerBatchTotals::operator+=(
    const LayerBatchTotals& other) noexcept {
  v_cycles += other.v_cycles;
  u_cycles += other.u_cycles;
  w_cycles += other.w_cycles;
  total_cycles += other.total_cycles;
  nnz_inputs += other.nnz_inputs;
  active_rows += other.active_rows;
  events += other.events;
  return *this;
}

BatchRunner::BatchRunner(const ArchParams& params, BatchOptions options)
    : params_(params), options_(options) {
  params_.validate();
}

namespace {

std::size_t resolve_threads(const BatchOptions& options, std::size_t total) {
  std::size_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Never spawn more workers than there are inputs.
  return std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(total, 1));
}

std::size_t argmax_i16(const std::vector<std::int16_t>& v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

/// Per-worker running sums. Every field is an exact integer count, so
/// folding worker accumulators in any fixed order reproduces the
/// sequential totals bit-for-bit.
struct WorkerAccum {
  std::vector<LayerBatchTotals> layers;
  std::uint64_t total_cycles = 0;
  std::size_t correct = 0;

  void absorb(const SimResult& r, bool is_correct) {
    total_cycles += r.total_cycles;
    if (layers.size() < r.layers.size()) layers.resize(r.layers.size());
    for (std::size_t l = 0; l < r.layers.size(); ++l)
      layers[l] += r.layers[l];
    if (is_correct) ++correct;
  }

  void absorb(const WorkerAccum& other) {
    total_cycles += other.total_cycles;
    correct += other.correct;
    if (layers.size() < other.layers.size())
      layers.resize(other.layers.size());
    for (std::size_t l = 0; l < other.layers.size(); ++l)
      layers[l] += other.layers[l];
  }
};

}  // namespace

BatchResult BatchRunner::run(const QuantizedNetwork& network,
                             const Dataset& data) const {
  // Compile once, run many: the per-PE slice image depends only on
  // (network, arch, use_predictor), never on the inputs.
  const CompiledNetwork compiled(network, params_, options_.use_predictor);
  return run(compiled, data);
}

BatchResult BatchRunner::run(const CompiledNetwork& compiled,
                             const Dataset& data) const {
  expects(compiled.num_pes() == params_.num_pes,
          "CompiledNetwork was built for a different PE count");
  expects(compiled.use_predictor() == options_.use_predictor,
          "CompiledNetwork was built for the other uv mode");

  // Count images, not labels: an unlabeled dataset (inputs only) is
  // still runnable — it just reports error_rate_percent = -1.
  const std::size_t num_images = data.inputs.rows();
  const std::size_t total =
      options_.max_samples == 0
          ? num_images
          : std::min(options_.max_samples, num_images);
  const std::size_t threads = resolve_threads(options_, total);
  const bool have_labels = data.labels.size() >= total;

  // Each worker folds every inference into a private accumulator as it
  // goes; with keep_results it also copies the SimResult into its
  // input-index slot.
  std::vector<SimResult> results(options_.keep_results ? total : 0);
  std::vector<WorkerAccum> accums(threads);
  std::atomic<std::size_t> cursor{0};
  // The first worker to win this flag runs the batch's one validated
  // inference; everyone else trusts the engine from inference one (a
  // per-worker flag would validate once per thread, scaling the
  // redundant golden recomputation with the pool size).
  std::atomic<bool> batch_validated{false};

  const auto worker = [&](std::size_t worker_id) {
    // One private engine per worker: backends carry per-inference
    // scratch (the cycle engine its per-PE register files and event
    // counters) across run() calls. The compiled image is shared
    // read-only. Each worker also carries a private ResultArena,
    // pre-sized for the compiled image, so its steady-state inferences
    // are allocation-free unless results are kept: the SimResult is
    // folded into the accumulator and its storage reused.
    const std::unique_ptr<ExecutionEngine> engine =
        make_engine(options_.engine.value_or(EngineKind::kCycle), params_);
    ResultArena arena(compiled);
    try {
      while (true) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        const bool full =
            !batch_validated.load(std::memory_order_relaxed) &&
            !batch_validated.exchange(true, std::memory_order_relaxed);
        const ValidationMode mode =
            full ? ValidationMode::kFull : ValidationMode::kOff;
        const SimResult& r = engine->run(compiled, data.image(i), arena, mode);
        const bool is_correct =
            have_labels &&
            argmax_i16(r.output) == static_cast<std::size_t>(data.labels[i]);
        accums[worker_id].absorb(r, is_correct);
        if (options_.keep_results) results[i] = r;
      }
    } catch (...) {
      cursor.store(total, std::memory_order_relaxed);  // stop the others
      throw;  // fork_join rethrows the first one on the calling thread
    }
  };

  const auto start = std::chrono::steady_clock::now();
  fork_join(threads, threads, worker);
  const auto stop = std::chrono::steady_clock::now();

  BatchResult out;
  out.num_inferences = total;
  out.num_threads = threads;
  out.validated_inferences = batch_validated.load() ? 1 : 0;
  out.wall_seconds = std::chrono::duration<double>(stop - start).count();

  // Deterministic merge of the worker accumulators in worker order:
  // every field is an exact integer sum, so the totals do not depend
  // on which worker ran which input, nor on the thread count.
  WorkerAccum merged;
  for (const WorkerAccum& accum : accums) merged.absorb(accum);
  out.total_cycles = merged.total_cycles;
  out.layers = std::move(merged.layers);
  for (const LayerBatchTotals& l : out.layers) out.total_events += l.events;
  if (have_labels && total > 0) {
    out.error_rate_percent =
        100.0 * static_cast<double>(total - merged.correct) /
        static_cast<double>(total);
  }
  out.results = std::move(results);
  return out;
}

}  // namespace sparsenn
