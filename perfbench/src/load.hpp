#pragma once
// Request generators for the serving tier: an open loop (Poisson
// arrivals on a fixed schedule) and a closed loop (a fixed number of
// requests outstanding), both driven from the calling thread.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/frontend.hpp"

namespace perfbench {

/// Where requests go and what their results must equal.
struct ServeTarget {
  sparsenn::ServingFrontend& frontend;
  std::vector<std::size_t> handles;  ///< frontend handle per model
  const Workload& workload;
  /// [model][input] results every kOk response must equal.
  const ResultTable& golden;
  std::uint64_t sent = 0;  ///< requests sent so far; each one's id
};

/// Registers every network under its model's arch and sends one warm-up
/// request per model, waiting for each, so every image is compiled
/// before anything is timed. A warm-up that is not kOk counts as failed.
std::vector<std::size_t> deploy(
    sparsenn::ServingFrontend& frontend, const Workload& w,
    const std::vector<std::unique_ptr<sparsenn::QuantizedNetwork>>& nets,
    Tally& tally);

/// One completed open-loop request, microseconds. latency is from the
/// scheduled send to the first time the generator saw the result.
struct RequestTimes {
  double latency = 0.0;
  double gen_late = 0.0;  ///< actual send − scheduled send
  double submit = 0.0;    ///< the submit() call itself
  double queue = 0.0;     ///< ServeResult::queue_us
  double exec = 0.0;      ///< ServeResult::exec_us
  double handoff = 0.0;   ///< observation − (send + total_us)
};

/// Micro-batch accounting from ServingStats, differenced around phases.
struct BatchCounts {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;  ///< completed + failed in those batches
  std::uint64_t timeout_closes = 0;
};

struct OpenLog {
  std::vector<double> latency_us;  ///< every request; +inf if not kOk
  std::vector<RequestTimes> ok;    ///< completed requests
  std::vector<WindowLatency> windows;  ///< per open_loop call
  double gen_late_max_us = 0.0;
  BatchCounts batches;
  Tally tally;
};

struct ClosedLog {
  std::vector<double> rate;  ///< completions per second, per call
  std::uint64_t completed = 0;
  std::uint64_t allocs = 0;  ///< operator-new calls inside the windows
  BatchCounts batches;
  Tally tally;
};

/// Sends Poisson arrivals at `rate` per second for `seconds`. Between
/// sends it polls every outstanding future and stamps each completion
/// the first time it is seen; each request is timed from when it was
/// due, so a stalled generator shows as latency, and gen_late records
/// how late it ran. Returns when every request has resolved.
void open_loop(ServeTarget& target, double rate, double seconds,
               sparsenn::Rng& rng, Tracer& tracer, std::uint64_t parent,
               OpenLog& log);

/// Keeps `outstanding` requests in flight for `seconds`, resubmitting
/// on each completion, then drains. Appends the completion rate.
void closed_loop(ServeTarget& target, std::size_t outstanding,
                 double seconds, sparsenn::Rng& rng, Tracer& tracer,
                 std::uint64_t parent, ClosedLog& log);

/// Adds the serve.* and core.* per-layer metrics of one pass — span
/// statistics when traced, plus counts — and prints the attribution of
/// the open loop's p99 to its stages.
void report_serving(const OpenLog& open, const ClosedLog& closed,
                    const sparsenn::ServingStats& stats,
                    const Tracer& tracer, PassReport& report);

}  // namespace perfbench
