#include "serve/frontend.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "sim/compiled_network.hpp"
#include "sim/result_arena.hpp"

namespace sparsenn {

namespace {

double micros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* to_string(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kShedQueueFull: return "shed-queue-full";
    case ServeStatus::kShedModelBusy: return "shed-model-busy";
    case ServeStatus::kShedCircuitOpen: return "shed-circuit-open";
    case ServeStatus::kShutdown: return "shutdown";
    case ServeStatus::kDeadlineExceeded: return "deadline-exceeded";
    case ServeStatus::kEngineError: return "engine-error";
  }
  return "unknown";
}

/// What one worker thread owns privately: an engine + arena per arch
/// config it has seen, and the per-batch resolved flags. Engines are
/// stateful scratch owners (one per thread, like BatchRunner workers),
/// and an arena re-reserves cheaply when a batch switches models
/// within one arch.
struct ServingFrontend::WorkerLocal {
  struct EngineSlot {
    ArchParams arch;
    std::unique_ptr<ExecutionEngine> engine;
    /// Degraded-mode backend (AnalyticEngine), created on first use —
    /// shares the arena with the primary: both run sequentially on
    /// this worker and copy results out before the slot is reused.
    std::unique_ptr<ExecutionEngine> fallback;
    ResultArena arena;
  };
  /// A worker sees one or two archs, so a scan that compares archs by
  /// value beats a keyed map and builds nothing per batch.
  std::vector<EngineSlot> slots;
  /// resolved[i] = request i of the current batch has its result;
  /// reused across batches.
  std::vector<char> resolved;

  EngineSlot& slot_for(const ArchParams& arch, const ServingOptions& options) {
    for (EngineSlot& slot : slots)
      if (slot.arch == arch) return slot;
    EngineSlot& slot = slots.emplace_back();
    slot.arch = arch;
    slot.engine = make_engine(options.engine, arch);
    return slot;
  }
};

/// Lane = (model handle, priority, uv mode): a micro-batch only groups
/// requests that execute the same compiled image, and keeping priority
/// in the key means one lane never mixes admission/claiming classes
/// (the queue claims oldest-highest-first across lanes). The queue
/// keys lanes by the packed id().
struct ServingFrontend::Lane {
  std::size_t model = 0;
  Priority priority = Priority::kNormal;
  bool use_predictor = true;

  std::uint64_t id() const noexcept {
    return (static_cast<std::uint64_t>(model) << 3) |
           (static_cast<std::uint64_t>(priority) << 1) |
           (use_predictor ? 1u : 0u);
  }
  static Lane of(std::uint64_t id) noexcept {
    return Lane{static_cast<std::size_t>(id >> 3),
                static_cast<Priority>((id >> 1) & 0x3u), (id & 1u) != 0};
  }

  /// A result for a request of this lane; outcome and timing fields
  /// are left for the caller.
  ServeResult result(ServeStatus status, std::string error = {}) const {
    ServeResult out;
    out.status = status;
    out.model = model;
    out.use_predictor = use_predictor;
    out.priority = priority;
    out.error = std::move(error);
    return out;
  }
};

ServingFrontend::ServingFrontend(ServingOptions options)
    : options_(options),
      queue_(RequestQueue<Pending>::Options{
          options_.queue_capacity, options_.max_queued_per_model,
          options_.max_batch, options_.class_watermarks}),
      health_(options_.breaker, options_.brownout_window,
              options_.breaker.window > 0 || options_.allow_degraded) {
  expects(options_.num_workers > 0, "need at least one serving worker");
  expects(options_.brownout_queue_fraction > 0.0 &&
              options_.brownout_queue_fraction <= 1.0,
          "brownout_queue_fraction must be in (0, 1]");
  brownout_depth_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             options_.brownout_queue_fraction *
             static_cast<double>(options_.queue_capacity)));
  stats_.batch_size_counts.assign(options_.max_batch, 0);
  try {
    {
      const sync::MutexLock lock(workers_mutex_);
      workers_.reserve(options_.num_workers);
      for (std::size_t w = 0; w < options_.num_workers; ++w)
        spawn_worker_locked();
    }
    if (options_.worker_stall_timeout_us > 0)
      watchdog_ = std::thread([this] { watchdog_main(); });
  } catch (...) {
    // Thread creation failed: stop and join what did start so no
    // joinable thread is ever destructed.
    queue_.shutdown();
    const sync::MutexLock lock(workers_mutex_);
    for (auto& w : workers_)
      if (w->thread.joinable()) w->thread.join();
    throw;
  }
}

ServingFrontend::~ServingFrontend() { shutdown(); }

void ServingFrontend::spawn_worker_locked() {
  auto worker = std::make_unique<Worker>();
  worker->last_beat_us.store(steady_now_us(), std::memory_order_relaxed);
  Worker* raw = worker.get();
  workers_.push_back(std::move(worker));
  raw->thread = std::thread([this, raw] { worker_main(*raw); });
}

void ServingFrontend::shutdown() {
  {
    const sync::MutexLock lock(models_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Watchdog first: no replacement workers may spawn during teardown.
  if (watchdog_.joinable()) {
    {
      const sync::MutexLock lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  queue_.shutdown();  // admission stops; queued requests drain
  // Join every worker ever spawned — replacements and lost originals
  // alike (a revived hung worker resolves its batch, then exits).
  std::vector<std::unique_ptr<Worker>> workers;
  {
    const sync::MutexLock lock(workers_mutex_);
    workers.swap(workers_);
  }
  for (auto& w : workers)
    if (w->thread.joinable()) w->thread.join();
}

std::size_t ServingFrontend::register_model(const QuantizedNetwork& network,
                                            const ArchParams& arch) {
  arch.validate();
  for (std::size_t l = 0; l < network.num_layers(); ++l) {
    expects(network.layer(l).in_dim() <= arch.max_activations() &&
                network.layer(l).out_dim() <= arch.max_activations(),
            "layer width exceeds the architecture's activation capacity");
  }
  // Compiled outside the lock, so a registration never holds up a
  // worker's image lookup.
  ModelEntry entry{
      std::make_shared<const CompiledNetwork>(network, arch,
                                              /*use_predictor=*/true),
      std::make_shared<const CompiledNetwork>(network, arch,
                                              /*use_predictor=*/false)};
  const sync::MutexLock lock(models_mutex_);
  expects(!shut_down_, "cannot register models after shutdown");
  models_.push_back(std::move(entry));
  return models_.size() - 1;
}

std::shared_ptr<const CompiledNetwork> ServingFrontend::model_image(
    std::size_t model, bool use_predictor) const {
  const sync::MutexLock lock(models_mutex_);
  const ModelEntry& entry = models_[model];
  return use_predictor ? entry.uv_on : entry.uv_off;
}

std::size_t ServingFrontend::num_models() const {
  const sync::MutexLock lock(models_mutex_);
  return models_.size();
}

std::future<ServeResult> ServingFrontend::resolve_now(const Lane& lane,
                                                      ServeStatus status,
                                                      std::string error) {
  // Shedding (and admission-path failure) is a first-class response,
  // not an exception: the future resolves immediately so open-loop
  // clients account it as load turned away, with zero queue residence.
  // submitted was already counted by submit() — only the outcome
  // counters move here.
  std::promise<ServeResult> promise;
  promise.set_value(lane.result(status, std::move(error)));
  {
    const sync::MutexLock lock(stats_mutex_);
    const std::size_t cls = class_index(lane.priority);
    if (status == ServeStatus::kEngineError) {
      ++stats_.failed;
      ++stats_.failed_by_class[cls];
    } else {
      ++stats_.shed;
      ++stats_.shed_by_class[cls];
      if (status == ServeStatus::kShedCircuitOpen) ++stats_.circuit_shed;
    }
  }
  return promise.get_future();
}

std::future<ServeResult> ServingFrontend::submit(
    std::size_t model, std::span<const float> input,
    const SubmitOptions& submit_options) {
  const Lane lane{model, submit_options.priority,
                  submit_options.use_predictor};
  bool reject_shut_down = false;
  {
    const sync::MutexLock lock(models_mutex_);
    expects(model < models_.size(), "unknown model handle");
    reject_shut_down = shut_down_;
  }
  // Count the submission *before* the request can become visible to a
  // worker: once try_push succeeds a worker may complete (and count)
  // the request immediately, and counting submitted afterwards let a
  // concurrent stats() observe completed + shed + failed > submitted —
  // the exact-accounting invariant broken mid-flight. Flushed out by
  // the PR-8 lock-annotation pass; tests/chaos_test.cpp samples the
  // invariant live under a storm.
  {
    const sync::MutexLock lock(stats_mutex_);
    ++stats_.submitted;
    ++stats_.submitted_by_class[class_index(lane.priority)];
  }
  if (reject_shut_down) return resolve_now(lane, ServeStatus::kShutdown);
  std::future<ServeResult> future;
  PushOutcome outcome;
  try {
    // Everything past the submitted count is inside the containment
    // block: a throw anywhere here (input-copy allocation, an armed
    // serve.queue.push or serve.breaker.probe fault ...) must resolve
    // the already-counted request, never leak the exception or leave
    // the accounting dangling.
    //
    // Circuit breaker first: an open breaker sheds before the request
    // costs a queue slot or any worker time.
    const ModelHealth::Admission admission = health_.admit(model);
    if (admission == ModelHealth::Admission::kShed)
      return resolve_now(lane, ServeStatus::kShedCircuitOpen);
    Pending pending;
    pending.probe = admission == ModelHealth::Admission::kProbe;
    pending.input.assign(input.begin(), input.end());
    future = pending.promise.get_future();

    const auto deadline =
        submit_options.deadline_us > 0
            ? RequestQueue<Pending>::Clock::now() +
                  std::chrono::microseconds(submit_options.deadline_us)
            : RequestQueue<Pending>::kNoDeadline;
    outcome = queue_.try_push(lane.id(), std::move(pending), deadline,
                              lane.priority);
  } catch (const std::exception& e) {
    // Admission-path failure: contained — the client gets a resolved
    // failed future, never a leaked exception or a broken promise.
    return resolve_now(lane, ServeStatus::kEngineError, e.what());
  }
  switch (outcome) {
    case PushOutcome::kAccepted:
      return future;
    case PushOutcome::kShedQueueFull:
      return resolve_now(lane, ServeStatus::kShedQueueFull);
    case PushOutcome::kShedLaneFull:
      return resolve_now(lane, ServeStatus::kShedModelBusy);
    case PushOutcome::kClosed:
      return resolve_now(lane, ServeStatus::kShutdown);
  }
  return future;  // unreachable
}

void ServingFrontend::worker_main(Worker& self) {
  WorkerLocal local;
  for (;;) {
    self.busy.store(false, std::memory_order_release);
    auto batch = queue_.next_batch();
    if (!batch) break;
    self.last_beat_us.store(steady_now_us(), std::memory_order_release);
    self.busy.store(true, std::memory_order_release);
    process_batch(*batch, local, self);
    if (self.lost.load(std::memory_order_acquire)) {
      // The watchdog replaced this worker while it was stalled. Its
      // batch is resolved (above); retire quietly — the replacement
      // carries the capacity from here on.
      break;
    }
  }
  self.busy.store(false, std::memory_order_release);
}

void ServingFrontend::process_batch(RequestQueue<Pending>::Batch& batch,
                                    WorkerLocal& local, Worker& self) {
  const Lane lane = Lane::of(batch.lane);
  const std::size_t cls = class_index(lane.priority);
  const std::size_t n = batch.requests.size();
  std::vector<char>& resolved = local.resolved;
  resolved.assign(n, 0);
  std::uint64_t ok = 0, failed = 0, dead = 0;
  std::uint64_t degraded_ok = 0, probe_ok = 0, probe_failed = 0;
  bool ran_on_image = false;
  double exec_us_sum = 0.0;
  std::uint64_t exec_samples = 0;

  // Every request of the batch resolves through here: the batch it
  // rode in and its latency split at `done`. A deadline shed never
  // executed, so its exec_us stays 0.
  const auto resolve = [&](std::size_t i, ServeResult out,
                           RequestQueue<Pending>::Clock::time_point done) {
    const auto enqueued = batch.requests[i].enqueued;
    out.batch_size = n;
    out.batch_close = batch.close;
    out.queue_us = micros(batch.closed_at - enqueued);
    if (out.status != ServeStatus::kDeadlineExceeded)
      out.exec_us = micros(done - batch.closed_at);
    out.total_us = micros(done - enqueued);
    batch.requests[i].item.promise.set_value(std::move(out));
    resolved[i] = 1;
  };

  // Failure containment: no exception may escape this function — a
  // batch-level failure resolves every not-yet-resolved request with
  // kEngineError and the worker lives on to serve the next batch.
  const auto fail_unresolved = [&](const std::string& what) {
    for (std::size_t i = 0; i < n; ++i) {
      if (resolved[i]) continue;
      if (batch.requests[i].item.probe) ++probe_failed;
      resolve(i, lane.result(ServeStatus::kEngineError, what),
              RequestQueue<Pending>::Clock::now());
      ++failed;
    }
  };

  try {
    // Chaos hook: a batch-level throw exercises the containment path
    // above; an injected delay stalls the worker into watchdog range.
    (void)fault::point("serve.worker.batch");

    // Deadline shed at claim time, before any engine time is spent. A
    // shed probe proved nothing, so it counts as a failed probe
    // (conservative: the breaker re-opens rather than closing on no
    // evidence).
    const auto claim_time = RequestQueue<Pending>::Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (batch.requests[i].deadline >= claim_time) continue;
      if (batch.requests[i].item.probe) ++probe_failed;
      resolve(i, lane.result(ServeStatus::kDeadlineExceeded),
              RequestQueue<Pending>::Clock::now());
      ++dead;
    }

    if (dead < n) {
      // The lane's image, compiled at registration; the pin is one
      // reference count.
      const std::shared_ptr<const CompiledNetwork> image =
          model_image(lane.model, lane.use_predictor);
      ran_on_image = true;
      const ArchParams& arch = image->params();
      WorkerLocal::EngineSlot& backend = local.slot_for(arch, options_);
      backend.arena.reserve(*image);

      // Degraded-mode inputs, sampled once per batch: the brownout
      // signal (queue pressure + recent deadline sheds) and the
      // model's observed cycle-path latency.
      const bool degradable =
          options_.allow_degraded && options_.engine == EngineKind::kCycle;
      bool brownout = false;
      double est_exec_us = 0.0;
      if (degradable) {
        brownout = queue_.size() >= brownout_depth_ ||
                   (options_.brownout_deadline_sheds > 0 &&
                    health_.recent_deadline_sheds() >=
                        options_.brownout_deadline_sheds);
        est_exec_us = health_.estimated_exec_us(lane.model);
      }

      for (std::size_t i = 0; i < n; ++i) {
        if (resolved[i]) continue;
        self.last_beat_us.store(steady_now_us(), std::memory_order_release);
        // Chaos hook: an injected delay beyond the stall bound makes
        // this worker "hang" mid-batch for the watchdog to catch.
        (void)fault::point("serve.worker.hang");
        const auto deadline = batch.requests[i].deadline;
        Pending& pending = batch.requests[i].item;
        ServeResult out = lane.result(ServeStatus::kOk);
        // Degrade to the analytic fallback when the frontend is in
        // brownout, or when this request's remaining deadline budget
        // is provably below the model's observed cycle-path latency
        // — a functional answer beats a deadline shed.
        bool degrade = degradable && brownout;
        if (degradable && !degrade &&
            deadline != RequestQueue<Pending>::kNoDeadline &&
            est_exec_us > 0.0) {
          const double budget_us =
              micros(deadline - RequestQueue<Pending>::Clock::now());
          degrade = budget_us < est_exec_us;
        }
        ExecutionEngine* engine = backend.engine.get();
        if (degrade) {
          if (!backend.fallback)
            backend.fallback = make_engine(EngineKind::kAnalytic, arch);
          engine = backend.fallback.get();
        }
        const auto run_begin = RequestQueue<Pending>::Clock::now();
        try {
          // Chaos hook on the fallback boundary: a throw here is
          // per-request contained like any engine failure.
          if (degrade) (void)fault::point("serve.degrade.run");
          const SimResult& r = engine->run(*image, pending.input,
                                           backend.arena, ValidationMode::kOff);
          out.result = r;  // copy out: the arena slot is reused next run
        } catch (const std::exception& e) {
          // Per-request containment: this request fails, the rest of
          // the batch still executes.
          out.status = ServeStatus::kEngineError;
          out.error = e.what();
        } catch (...) {
          out.status = ServeStatus::kEngineError;
          out.error = "unknown engine error";
        }
        if (out.status == ServeStatus::kOk &&
            fault::point("serve.result.corrupt")) {
          fault::corrupt_i16(out.result.output);
          out.fault_corrupted = true;
        }
        const auto done = RequestQueue<Pending>::Clock::now();
        out.degraded = degrade && out.status == ServeStatus::kOk;
        if (out.status == ServeStatus::kOk) {
          ++ok;
          if (out.degraded) ++degraded_ok;
          if (pending.probe) ++probe_ok;
          if (!degrade && health_.enabled()) {
            // Primary-path latency sample for the degraded-mode
            // budget estimate (fallback runs excluded on purpose).
            exec_us_sum += micros(done - run_begin);
            ++exec_samples;
          }
        } else {
          ++failed;
          if (pending.probe) ++probe_failed;
        }
        resolve(i, std::move(out), done);
      }
    }
  } catch (const std::exception& e) {
    fail_unresolved(e.what());
  } catch (...) {
    fail_unresolved("unknown serving failure");
  }

  {
    const sync::MutexLock lock(stats_mutex_);
    stats_.completed += ok;
    stats_.failed += failed;
    stats_.shed += dead;
    stats_.deadline_shed += dead;
    stats_.degraded_completed += degraded_ok;
    stats_.completed_by_class[cls] += ok;
    stats_.failed_by_class[cls] += failed;
    stats_.shed_by_class[cls] += dead;
    if (ran_on_image) ++stats_.zoo_hits;
    const std::size_t bucket =
        std::min(n, stats_.batch_size_counts.size()) - 1;
    ++stats_.batch_size_counts[bucket];
    switch (batch.close) {
      case BatchClose::kSize: ++stats_.size_closes; break;
      case BatchClose::kPartial: ++stats_.timeout_closes; break;
      case BatchClose::kDrain: ++stats_.drain_closes; break;
    }
  }

  if (health_.enabled()) {
    ModelHealth::BatchOutcome outcome;
    outcome.ok = ok;
    outcome.failed = failed;
    outcome.deadline_shed = dead;
    outcome.probe_ok = probe_ok;
    outcome.probe_failed = probe_failed;
    outcome.exec_us_sum = exec_us_sum;
    outcome.exec_samples = exec_samples;
    health_.record(lane.model, outcome);
  }
}

void ServingFrontend::watchdog_main() {
  const auto interval =
      std::chrono::microseconds(options_.watchdog_interval_us);
  sync::UniqueLock lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, interval);
    if (watchdog_stop_) break;
    const std::uint64_t now = steady_now_us();
    const std::uint64_t bound = options_.worker_stall_timeout_us;
    std::size_t lost_now = 0;
    {
      const sync::MutexLock workers_lock(workers_mutex_);
      for (auto& w : workers_) {
        if (w->lost.load(std::memory_order_acquire)) continue;
        if (!w->busy.load(std::memory_order_acquire)) continue;
        const std::uint64_t beat =
            w->last_beat_us.load(std::memory_order_acquire);
        if (now > beat && now - beat > bound) {
          // Stalled mid-batch beyond the bound: give up on it. The
          // thread itself cannot be killed — if it ever revives it
          // resolves its batch and retires — but serving capacity is
          // restored right now by a replacement.
          w->lost.store(true, std::memory_order_release);
          ++lost_now;
        }
      }
      for (std::size_t s = 0; s < lost_now; ++s) spawn_worker_locked();
    }
    if (lost_now > 0) {
      const sync::MutexLock stats_lock(stats_mutex_);
      stats_.workers_restarted += lost_now;
    }
  }
}

ServingStats ServingFrontend::stats() const {
  ServingStats out;
  {
    const sync::MutexLock lock(stats_mutex_);
    out = stats_;
  }
  out.batches = queue_.batches();
  out.zoo_compiles = 2 * num_models();
  out.breaker_opens = health_.opens();
  out.breaker_probes = health_.probes();
  out.breaker_closes = health_.closes();
  return out;
}

}  // namespace sparsenn
