#pragma once
// Shared pieces of the perfbench harness: clocks, exact percentiles,
// machine counters, the span recorder, the generated workload, and the
// report one measurement pass fills.
//
// Every number here is taken from outside the library, by timing calls
// into its public API (AcceleratorSim / AnalyticEngine::run,
// CompiledNetwork, QuantizedNetwork, ServingFrontend::submit).

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/compiled_network.hpp"
#include "sim/result_arena.hpp"
#include "tensor/matrix.hpp"

namespace perfbench {

// ------------------------------------------------------------ clocks

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the harness started.
std::int64_t now_ns();

inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}
inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) / 1e9;
}
inline std::int64_t s_to_ns(double s) {
  return static_cast<std::int64_t>(s * 1e9);
}

/// Exact percentile (linear interpolation between order statistics);
/// `p` in [0, 100]. NaN for an empty sample. Infinite entries sort
/// last, so a failed request counts as missing every latency limit.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Global operator-new calls so far (main.cpp, the one translation
/// unit that includes common/alloc_counter.hpp).
std::uint64_t allocs_now();

/// Host CPU steal ticks from /proc/stat; 0 where it cannot be read.
std::uint64_t steal_ticks();

// ------------------------------------------------------------ tracing

/// Every span the harness records. The name of each (span_name) is the
/// layer it times: nn.*, sim.*, serve.*; window.* and the phase names
/// group them.
enum class SpanKind : std::uint8_t {
  kSetup,
  kCheck,
  kReplay,
  kSelftest,
  kWindowCycle,
  kWindowAnalytic,
  kWindowOpen,
  kWindowClosed,
  kQuantize,
  kCompile,
  kCycleRun,
  kOracleRun,
  kAnalyticRun,
  kForward,
  kOpenRequest,
  kOpenGenLate,
  kOpenSubmit,
  kOpenQueue,
  kOpenExec,
  kOpenHandoff,
  kClosedRequest,
  kClosedSubmit,
  kClosedQueue,
  kClosedExec,
  kClosedHandoff,
  kCount,
};

const char* span_name(SpanKind kind) noexcept;

/// In-memory span recorder. Off, it records nothing and Span costs no
/// clock read. On, every span's duration is kept per kind (the
/// per-layer statistics) and the first kMaxRecords spans are kept whole
/// for the Chrome trace-event file written at exit. Single-threaded:
/// only the harness thread records.
class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = 200000;

  explicit Tracer(bool on);

  bool on() const noexcept { return on_; }
  std::uint64_t next_id() noexcept { return ++last_id_; }

  /// Records a finished span under a fresh id and returns the id.
  std::uint64_t record(SpanKind kind, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t request = 0);
  /// Records a finished span under an id taken earlier from next_id().
  void add(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t id, std::uint64_t parent, std::uint64_t request);

  /// Durations of every span of `kind`, microseconds.
  std::vector<double> durations_us(SpanKind kind) const;
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t kept() const noexcept { return records_.size(); }

  /// Writes the kept spans as Chrome trace-event JSON (viewable in
  /// Perfetto or chrome://tracing). False if the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
  };

  bool on_;
  std::uint64_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Record> records_;
  std::array<std::vector<float>, static_cast<std::size_t>(SpanKind::kCount)>
      durations_;
};

/// A span around one scope. Children name it through id().
class Span {
 public:
  Span(Tracer& tracer, SpanKind kind, std::uint64_t parent = 0,
       std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  SpanKind kind_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
};

// ----------------------------------------------------------- workload

/// One model as generated from the seed, before set-up quantises it.
struct ModelSpec {
  sparsenn::Network net;
  sparsenn::Matrix calibration;
  sparsenn::ArchParams arch;
  bool use_predictor = true;
};

/// A workload's generated inputs: models, an input pool, and the
/// popularity of each model. Everything here is a function of the seed.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  bool serving = false;  ///< serve_zoo (else a cycle-engine sweep)
  std::vector<ModelSpec> models;
  std::vector<std::vector<float>> inputs;
  std::vector<double> popularity_cdf;  ///< zipf over models
  std::string description;             ///< one line for the log
};

/// Builds `name` (sweep_sparse | sweep_dense | serve_zoo) from `seed`;
/// throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Index drawn from a cumulative distribution.
std::size_t draw(const std::vector<double>& cdf, double u);

// ------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and how they failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;    ///< refused by admission control
  std::uint64_t errors = 0;  ///< resolved with an engine error
  std::uint64_t wrong = 0;   ///< an output that failed its check

  std::uint64_t failed() const noexcept { return shed + errors + wrong; }
  Tally& operator+=(const Tally& o) noexcept {
    attempted += o.attempted;
    shed += o.shed;
    errors += o.errors;
    wrong += o.wrong;
    return *this;
  }
};

/// What one measurement pass produced.
struct PassReport {
  std::map<std::string, Metric> e2e;    ///< end-to-end metrics
  std::map<std::string, Metric> layer;  ///< per-layer metrics
  Tally tally;
  bool harness_ok = true;  ///< the harness's own self-checks passed
};

// ------------------------------------------------------ direct engines

/// Quantised networks, their compiled images and the direct engines of
/// one arch, as set-up and the check ladder build them.
struct DirectRig {
  std::vector<std::unique_ptr<sparsenn::QuantizedNetwork>> nets;
  std::vector<std::unique_ptr<sparsenn::CompiledNetwork>> images;
  std::vector<sparsenn::ResultArena> arenas;  ///< one per image
  std::unique_ptr<sparsenn::AcceleratorSim> sim;
  std::unique_ptr<sparsenn::AnalyticEngine> analytic;
};

/// QuantizedNetwork constructor, under an nn.quantize span.
std::unique_ptr<sparsenn::QuantizedNetwork> quantize(const ModelSpec& spec,
                                                     Tracer& tracer,
                                                     std::uint64_t parent);

/// CompiledNetwork for every net plus arenas and both direct engines,
/// each compile under a sim.compile span.
void build_engines(const Workload& w, DirectRig& rig, Tracer& tracer,
                   std::uint64_t parent);

/// Modelled counts summed over the checked (model, input) pairs; exact,
/// so two commits compare them bit for bit.
struct ExactCounts {
  std::uint64_t inferences = 0;
  std::uint64_t cycles = 0;
  std::uint64_t v_cycles = 0;
  std::uint64_t u_cycles = 0;
  std::uint64_t w_cycles = 0;
  std::uint64_t w_flit_hops = 0;
  std::uint64_t w_conflicts = 0;
  std::uint64_t w_credit_stalls = 0;
  std::uint64_t v_flit_hops = 0;
  std::uint64_t macs = 0;
  std::uint64_t active_rows = 0;
  std::uint64_t nnz_inputs = 0;
  std::uint64_t events_executed = 0;  ///< event core iterations run
  std::uint64_t cycles_ticked = 0;    ///< event core simulated cycles
  double analytic_err_sum = 0.0;      ///< Σ |analytic − cycle| / cycle
};

/// [model][input] inference results.
using ResultTable = std::vector<std::vector<sparsenn::SimResult>>;

/// Results of the check ladder: what the timed phases compare against.
struct Checked {
  /// [model][input]: direct AnalyticEngine result — the golden every
  /// served and every timed analytic output must equal.
  ResultTable golden;
  /// [model][input]: cycle-engine result every timed cycle run must
  /// reproduce.
  ResultTable cycle;
  ExactCounts exact;
  std::size_t oracle_checked = 0;
  Tally tally;
};

/// The check ladder, run on every (model, input) pair:
///   1. event-driven cycle engine == SteppingMode::kPerCycle oracle,
///      bit for bit, on `oracle_samples` seeded pairs;
///   2. QuantizedNetwork::forward_layer chain == cycle activations;
///   3. analytic predictions (activations, output, nnz and active-row
///      counts) == cycle engine.
Checked check_ladder(const Workload& w, DirectRig& rig,
                     std::size_t oracle_samples, Tracer& tracer,
                     std::uint64_t parent);

/// Adds the exact counts (sim.*, noc.*, pe.* per inference, the event
/// ratio, cycles_per_inf and analytic_err_pct) to `report` and prints
/// the sums.
void report_exact(const ExactCounts& exact, PassReport& report);

/// Latency percentiles of one timed window, microseconds.
struct WindowLatency {
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Percentiles of `latency_us` from index `first` on.
WindowLatency window_latency(const std::vector<double>& latency_us,
                             std::size_t first);

/// Timed windows of back-to-back direct engine calls.
struct EngineWindows {
  std::vector<double> rate;        ///< inferences per second, per window
  std::vector<double> latency_us;  ///< every call, when kept
  std::vector<WindowLatency> windows;  ///< per window, when kept
  std::uint64_t runs = 0;
  std::uint64_t allocs = 0;  ///< operator-new calls inside engine calls
  Tally tally;
};

/// Runs `engine` through the arena path (validation off) for `seconds`
/// on (model, input) pairs drawn by popularity, one caller thread.
/// Every result's output and total cycles must equal `expected`.
void engine_window(sparsenn::ExecutionEngine& engine, DirectRig& rig,
                   const Workload& w, const ResultTable& expected,
                   double seconds, SpanKind window, SpanKind call,
                   bool keep_latency, sparsenn::Rng& rng, Tracer& tracer,
                   EngineWindows& out);

/// lat_p50_us / lat_p99_us: the median over windows of each window's
/// percentile, so a burst of host interference moves one window, not
/// the run. Prints the whole run's percentiles and sample count too.
void report_latency(const std::vector<WindowLatency>& windows,
                    const std::vector<double>& all_us, PassReport& report);

/// sim.* and nn.* timing statistics from a traced pass's spans, plus
/// sim.allocs_per_inf.
void report_engine_layers(const Tracer& tracer, std::uint64_t allocs,
                          std::uint64_t runs, PassReport& report);

// ---------------------------------------------------------- workloads

/// One measurement pass: set-up, the check ladder, then `seconds`
/// one-second rounds of timed work.
PassReport run_sweep(const Workload& w, std::size_t seconds, Tracer& tracer);
PassReport run_serve_zoo(const Workload& w, std::size_t seconds,
                         Tracer& tracer);

}  // namespace perfbench
