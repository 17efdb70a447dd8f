#pragma once
// ServingFrontend — the async request path of the serving tier.
//
//   clients ──submit()──▶ RequestQueue ──micro-batches──▶ workers
//                (bounded MPMC,           (per-worker engines,
//                 per-model lanes,         arch-keyed ModelZoo,
//                 admission/shedding,      zero-alloc arena path,
//                 per-request deadlines)   failure containment)
//                                              │
//   clients ◀──std::future<ServeResult>────────┘        watchdog ↺
//
// The frontend turns the ModelZoo/engine/arena machinery into a
// traffic endpoint; every other entry point is a synchronous batch
// sweep over a dataset. submit() copies the input, stamps it, and
// pushes it into a bounded MPMC queue (serve/request_queue.hpp) keyed
// by (model, priority, uv) lane. A free worker takes up to max_batch
// of the most urgent lane's queued requests at once (it never waits
// for a batch to fill), resolves the compiled image through one
// arch-keyed ModelZoo — so one process serves models deployed against
// mixed ArchParams configs — and runs each request on the worker's
// private ExecutionEngine through the zero-alloc ResultArena path. The
// SimResult plus queueing/batching/execution timestamps come back
// through the future.
//
// Results are bit-identical to System::simulate() for the same
// (network, arch, input, uv) on both engine backends — batching only
// changes *when* an inference runs, never its arithmetic
// (tests/serve_test pins this cross-engine).
//
// Failure semantics (the contract tests/chaos_test.cpp enforces under
// seeded fault storms):
//
//   containment — an exception anywhere inside a worker's batch
//     (engine run, zoo compile, arena reserve ...) fails exactly the
//     affected request(s) with ServeStatus::kEngineError carrying the
//     exception message. The worker thread survives, the process
//     survives, and no std::future is ever abandoned — every accepted
//     future resolves with a definite status.
//
//   deadlines — SubmitOptions::deadline_us bounds a request's useful
//     life. Expired requests are shed as kDeadlineExceeded at
//     batch-claim time, before any engine work is spent on them.
//
//   retry — a failure while resolving the compiled image (the
//     transient class: an injected compile failure, an allocation
//     hiccup) retries up to ServingOptions::max_retries with
//     exponential backoff (retry_backoff_us, doubling) before the
//     batch fails.
//
//   watchdog — when worker_stall_timeout_us > 0, a supervisor thread
//     watches per-worker heartbeats; a worker that stalls mid-batch
//     beyond the bound is marked lost (ServingStats::workers_restarted)
//     and a replacement is spawned, so capacity degrades gracefully
//     instead of silently shrinking. A lost worker that later revives
//     finishes (and resolves) its batch, then retires.
//
//   shedding — overload converts into shedding, not latency collapse:
//     submit() never blocks, and a request refused by admission
//     control (global queue capacity, or the per-model lane depth)
//     resolves its future immediately with a shed status.
//
//   priorities — SubmitOptions::priority selects the admission
//     watermarks (best-effort sheds first as depth rises) and the
//     claiming class (oldest-highest-first), so overload degrades
//     best-effort availability before normal, and normal before high.
//
//   circuit breakers — ModelHealth (serve/health.hpp) watches each
//     model's sliding-window failure rate; past the threshold, new
//     submissions shed immediately as kShedCircuitOpen with zero
//     queue/worker time until seeded half-open probes prove recovery.
//
//   degraded mode — with a kCycle primary and allow_degraded, a
//     request whose deadline budget is provably below the model's
//     observed cycle-path latency (or claimed during brownout) runs
//     on the AnalyticEngine fallback and is marked degraded instead
//     of being shed — fidelity degrades before availability.
//
// Accounting is exact: submitted == completed + shed + failed once
// the frontend is drained (deadline sheds count into `shed` and are
// also broken out as `deadline_shed`; circuit sheds likewise as
// `circuit_shed`; degraded completions count into `completed` and are
// broken out as `degraded_completed`), and the same identity holds
// per priority class.
//
// Fault points (common/fault.hpp) are threaded through the stack —
// serve.queue.push, serve.worker.batch, serve.worker.hang,
// serve.result.corrupt, zoo.compile, engine.run —
// and are zero-cost no-ops unless a test arms them.
//
// Ownership: register_model keeps its own copy of the network, so
// the caller's object may be destroyed or changed at once; requests
// always run the version that was registered. The frontend joins its
// workers in shutdown()/destructor after draining the queue.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/params.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"
#include "core/model_zoo.hpp"
#include "nn/quantized.hpp"
#include "serve/health.hpp"
#include "serve/request_queue.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

struct ServingOptions {
  std::size_t num_workers = 2;
  /// Most requests one worker takes from a lane at once. A free worker
  /// takes what is queued, up to this, and never waits for more.
  std::size_t max_batch = 8;
  /// Admission control: global queue bound and per-(model, priority,
  /// uv) lane bound; beyond either, submit() sheds immediately.
  std::size_t queue_capacity = 1024;
  std::size_t max_queued_per_model = 256;
  /// Backend each worker instantiates per arch config.
  EngineKind engine = EngineKind::kAnalytic;
  /// Bounded retry for transient compile-image failures: attempts
  /// beyond the first, with exponential backoff starting at
  /// retry_backoff_us and doubling per attempt. 0 = fail fast.
  std::uint32_t max_retries = 0;
  std::uint64_t retry_backoff_us = 100;
  /// Worker watchdog: a worker busy on a batch that has not heartbeat
  /// within worker_stall_timeout_us is marked lost and replaced.
  /// 0 disables the watchdog (no supervisor thread is started).
  std::uint64_t worker_stall_timeout_us = 0;
  /// Supervisor poll period (only meaningful with the watchdog on).
  std::uint64_t watchdog_interval_us = 1000;
  /// Per-class admission watermarks (fractions of queue_capacity and
  /// max_queued_per_model, indexed by class_index): lower classes shed
  /// first as depth rises. All-1.0 (the default) admits every class to
  /// the full bounds — priority admission is opt-in.
  std::array<double, kNumPriorityClasses> class_watermarks{1.0, 1.0, 1.0};
  /// Per-model circuit breaker (serve/health.hpp). breaker.window == 0
  /// (the default) disables circuit breaking.
  BreakerOptions breaker{};
  /// Degraded-mode fallback: with a kCycle primary engine, a request
  /// whose deadline budget is provably below the model's observed
  /// cycle-path latency — or any request claimed while the frontend is
  /// in brownout — transparently runs on the per-arch AnalyticEngine
  /// instead of being lost, marked ServeResult::degraded. Bit-exact
  /// functional output either way; only the cycle estimate degrades.
  bool allow_degraded = false;
  /// Brownout (queue-pressure) signal: active while the global queue
  /// depth is at/above brownout_queue_fraction × queue_capacity, or
  /// at least brownout_deadline_sheds of the last brownout_window
  /// request outcomes were deadline sheds.
  double brownout_queue_fraction = 0.9;
  std::uint64_t brownout_deadline_sheds = 64;
  std::size_t brownout_window = 512;
};

enum class ServeStatus {
  kOk,
  kShedQueueFull,      ///< global (class-watermarked) capacity reached
  kShedModelBusy,      ///< this model's lane depth bound reached
  kShedCircuitOpen,    ///< this model's circuit breaker is open
  kShutdown,           ///< submitted after/while shutting down
  kDeadlineExceeded,   ///< expired before execution; shed unexecuted
  kEngineError,        ///< execution failed; `error` carries the cause
};

const char* to_string(ServeStatus status) noexcept;

/// Per-request submission knobs (the two-arg submit() overload uses
/// the defaults: uv on, no deadline, normal priority).
struct SubmitOptions {
  bool use_predictor = true;
  /// Deadline relative to submit(), microseconds; past it the request
  /// is shed as kDeadlineExceeded instead of executed. 0 = none.
  std::uint64_t deadline_us = 0;
  /// Admission/claiming class (serve/request_queue.hpp): best-effort
  /// sheds first under load, high-priority heads are served first.
  Priority priority = Priority::kNormal;
};

/// One completed (or shed/failed) request.
struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  std::size_t model = 0;
  bool use_predictor = true;
  Priority priority = Priority::kNormal;
  /// True when this request ran on the degraded-mode AnalyticEngine
  /// fallback instead of the configured kCycle primary (functional
  /// output bit-identical to a direct AnalyticEngine run).
  bool degraded = false;
  SimResult result;            ///< empty when shed or failed
  std::string error;           ///< kEngineError: the exception message
  /// True when the fault framework's serve.result.corrupt point fired
  /// on this request (its output is XORed with fault::kCorruptMask —
  /// test observability for corruption-detection layers).
  bool fault_corrupted = false;
  std::size_t batch_size = 0;  ///< micro-batch this request rode in
  BatchClose batch_close = BatchClose::kSize;
  // Latency decomposition, microseconds (0 when shed at admission):
  double queue_us = 0.0;  ///< enqueue → micro-batch close
  double exec_us = 0.0;   ///< micro-batch close → this result ready
  double total_us = 0.0;  ///< enqueue → this result ready
};

/// Aggregate frontend counters (single consistent snapshot).
struct ServingStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;         ///< resolved kEngineError
  std::uint64_t deadline_shed = 0;  ///< subset of `shed`
  std::uint64_t circuit_shed = 0;   ///< subset of `shed` (breaker open)
  std::uint64_t retries = 0;        ///< compile-image retry attempts
  std::uint64_t workers_restarted = 0;
  /// Per-priority-class breakdown (indexed by class_index); each
  /// class's own accounting identity holds exactly:
  /// submitted_by_class == completed_by_class + shed_by_class +
  /// failed_by_class once drained.
  std::array<std::uint64_t, kNumPriorityClasses> submitted_by_class{};
  std::array<std::uint64_t, kNumPriorityClasses> completed_by_class{};
  std::array<std::uint64_t, kNumPriorityClasses> shed_by_class{};
  std::array<std::uint64_t, kNumPriorityClasses> failed_by_class{};
  /// Completions served by the degraded-mode analytic fallback
  /// (subset of `completed`).
  std::uint64_t degraded_completed = 0;
  /// Circuit-breaker transition counters (ModelHealth).
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t batches = 0;
  std::uint64_t size_closes = 0;     ///< BatchClose::kSize
  /// BatchClose::kPartial: batches that took every queued request of
  /// their lane, below max_batch (perfbench reads this name).
  std::uint64_t timeout_closes = 0;
  std::uint64_t drain_closes = 0;    ///< BatchClose::kDrain
  /// batch_size_counts[n-1] = micro-batches that closed with n
  /// requests (capped at the configured max_batch).
  std::vector<std::uint64_t> batch_size_counts;
  std::uint64_t zoo_compiles = 0;
  std::uint64_t zoo_hits = 0;

  double shed_rate() const noexcept {
    return submitted ? static_cast<double>(shed) /
                           static_cast<double>(submitted)
                     : 0.0;
  }
  /// Mean requests per micro-batch, from batch_size_counts alone: a
  /// deadline shed rode its batch and counts, an admission-path
  /// failure never rode one and does not.
  double mean_batch_size() const noexcept {
    std::uint64_t closed = 0, requests = 0;
    for (std::size_t n = 0; n < batch_size_counts.size(); ++n) {
      closed += batch_size_counts[n];
      requests += batch_size_counts[n] * (n + 1);
    }
    return closed ? static_cast<double>(requests) /
                        static_cast<double>(closed)
                  : 0.0;
  }
};

class ServingFrontend {
 public:
  explicit ServingFrontend(ServingOptions options);
  ~ServingFrontend();

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  /// Registers a deployable model under its own ArchParams (mixed
  /// configs are served side by side through the arch-keyed
  /// ModelZoo). The frontend keeps its own copy of `network` (see
  /// Ownership above). Returns the handle submit() takes.
  std::size_t register_model(const QuantizedNetwork& network,
                             const ArchParams& arch);

  /// Async inference: copies `input`, enqueues, returns the future.
  /// Never blocks and never leaks an exception from the serving
  /// stack — overload resolves the future immediately with a shed
  /// status, and an admission-path failure resolves it with
  /// kEngineError. Thread-safe (any number of client threads).
  std::future<ServeResult> submit(std::size_t model,
                                  std::span<const float> input,
                                  const SubmitOptions& submit_options);
  std::future<ServeResult> submit(std::size_t model,
                                  std::span<const float> input,
                                  bool use_predictor = true) {
    SubmitOptions o;
    o.use_predictor = use_predictor;
    return submit(model, input, o);
  }

  /// Stops admission, drains queued requests, joins the workers (and
  /// the watchdog). Idempotent; the destructor calls it.
  void shutdown();

  const ServingOptions& options() const noexcept { return options_; }
  std::size_t num_models() const;
  ServingStats stats() const;

  /// Current breaker state of a model handle (kClosed when breakers
  /// are disabled or the handle is unknown).
  BreakerState breaker_state(std::size_t model) const {
    return health_.state(model);
  }
  /// Breaker transition sequence in occurrence order — with a fixed
  /// breaker seed and a single-worker schedule this is deterministic
  /// (tests/overload_test.cpp pins it).
  std::vector<ModelHealth::Transition> breaker_transitions() const {
    return health_.transitions();
  }

 private:
  /// A queued request; its model, priority and uv mode are its lane's.
  struct Pending {
    bool probe = false;  ///< half-open breaker probe (outcome reported)
    std::vector<float> input;
    std::promise<ServeResult> promise;
  };
  struct ModelEntry {
    QuantizedNetwork network;
    ArchParams arch;
  };
  /// Per-worker supervision state. Stable address (owned via
  /// unique_ptr) because the worker thread and the watchdog both hold
  /// references across the workers_ vector growing.
  struct Worker {
    std::thread thread;
    std::atomic<std::uint64_t> last_beat_us{0};
    std::atomic<bool> busy{false};  ///< claimed a batch, not yet done
    std::atomic<bool> lost{false};  ///< watchdog gave up on it
  };
  struct WorkerLocal;  // a worker thread's engines and scratch (frontend.cpp)
  struct Lane;         // (model, priority, uv) queue lane key (frontend.cpp)

  void worker_main(Worker& self);
  /// A copy of a registered model's entry (it shares the layers).
  ModelEntry model_entry(std::size_t model) const
      SPARSENN_EXCLUDES(models_mutex_);
  void process_batch(RequestQueue<Pending>::Batch& batch, WorkerLocal& local,
                     Worker& self);
  void watchdog_main();
  /// Appends and starts a worker.
  void spawn_worker_locked() SPARSENN_REQUIRES(workers_mutex_);
  /// Resolves a future immediately (shed / admission failure). The
  /// caller has already counted the request as submitted; this only
  /// bumps the outcome counters (shed or failed, plus per-class).
  std::future<ServeResult> resolve_now(const Lane& lane, ServeStatus status,
                                       std::string error = {})
      SPARSENN_EXCLUDES(stats_mutex_);

  // Lock order (outermost first, never reversed):
  //   watchdog_mutex_ → workers_mutex_ | stats_mutex_
  //   models_mutex_ and stats_mutex_ are leaves (nothing is acquired
  //   under them), and zoo_ takes its own mutex under none of these.
  //   The thread-safety analysis proves each field's guard below; the
  //   order itself is prose — clang has no lock-ordering capability —
  //   so keep this comment honest.

  ServingOptions options_;
  ModelZoo zoo_;
  RequestQueue<Pending> queue_;
  ModelHealth health_;
  /// Brownout queue-depth trigger, precomputed from
  /// brownout_queue_fraction × queue_capacity — immutable.
  std::size_t brownout_depth_ = 0;

  mutable sync::Mutex models_mutex_;
  std::vector<ModelEntry> models_ SPARSENN_GUARDED_BY(models_mutex_);

  mutable sync::Mutex stats_mutex_;
  /// The frontend's own counters. The fields other components own
  /// (batches, zoo_*, breaker_*) stay 0 here; stats() fills them in.
  ServingStats stats_ SPARSENN_GUARDED_BY(stats_mutex_);

  mutable sync::Mutex workers_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_
      SPARSENN_GUARDED_BY(workers_mutex_);

  sync::Mutex watchdog_mutex_;
  sync::CondVar watchdog_cv_;
  bool watchdog_stop_ SPARSENN_GUARDED_BY(watchdog_mutex_) = false;
  std::thread watchdog_;

  bool shut_down_ SPARSENN_GUARDED_BY(models_mutex_) = false;
};

}  // namespace sparsenn
