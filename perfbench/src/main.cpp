// perfbench — the repository's benchmark binary. It runs one workload
// from a seed, checks every output, prints every metric by name with its
// unit, and ends with one "RESULT {json}" line that perfbench/run.py
// turns into the benchmark result.
//
//   perfbench --workload sweep_sparse|sweep_dense|serve_zoo --seed n
//             --seconds s --trace 0|1 [--trace-out path]
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics.
// --trace 1 runs that pass, then a traced pass of the same work that
// records a span around every call it times, reports the per-layer
// metrics from those spans, writes the spans as Chrome trace-event JSON
// to --trace-out, and reports how much each end-to-end metric moved
// between the two passes (the tracing overhead).
//
// Exit status: 0 when every output check and the harness self-test
// passed, 1 otherwise, 2 on a usage error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common/alloc_counter.hpp"  // in this translation unit only
#include "common/cli_args.hpp"
#include "common/simd.hpp"
#include "harness.hpp"

namespace perfbench {

std::uint64_t allocs_now() {
  return sparsenn::alloc_counter::count().load(std::memory_order_relaxed);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Peak resident set of this process image (VmHWM), MB; NaN if unknown.
/// Not getrusage(): Linux carries the parent's resident set at fork time
/// across exec into ru_maxrss, so a harness started from Python would
/// never read below the interpreter's ~14 MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return std::nan("");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* label,
                   const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, m] : metrics)
    std::printf("%s %s %.6f %s\n", label, name.c_str(), m.value,
                m.unit.c_str());
}

/// What each end-to-end metric means on this workload.
void print_legend(const Workload& w) {
  if (w.serving) {
    std::printf(
        "legend inf_per_s = sat_inf_per_s: closed loop, 256 requests "
        "outstanding, median over rounds\n"
        "legend lat_p50_us, lat_p99_us: open loop, Poisson 8000 req/s, "
        "scheduled send to first observation; shed or failed = +inf\n"
        "legend analytic_inf_per_s: direct AnalyticEngine::run on the zoo "
        "models, one caller\n"
        "legend cycles_per_inf, analytic_err_pct: modelled cycle-engine "
        "cycles per inference, and mean |analytic - cycle| / cycle total "
        "cycles, over every checked model-input pair\n");
  } else {
    std::printf(
        "legend inf_per_s = cycle_inf_per_s: AcceleratorSim::run, one "
        "caller, arena path, median over windows\n"
        "legend lat_p50_us, lat_p99_us: host time of one cycle-engine "
        "AcceleratorSim::run call\n"
        "legend analytic_inf_per_s: AnalyticEngine::run on the same "
        "images, one caller, median over windows\n"
        "legend cycles_per_inf, analytic_err_pct: modelled cycle-engine "
        "cycles per inference, and mean |analytic - cycle| / cycle total "
        "cycles, over the checked images\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const sparsenn::CliArgs args(argc, argv, 1);
    const std::string name = args.get("workload", "");
    const std::uint64_t seed = args.get_size("seed", 1);
    const std::size_t seconds = args.get_size("seconds", 10);
    const std::size_t trace = args.get_size("trace", 0);
    const std::string trace_out = args.get("trace-out", "perfbench-trace.json");
    if (seconds < 1 || trace > 1)
      throw sparsenn::UsageError("--seconds must be >= 1, --trace 0 or 1");

    // Inputs come only from the seed: never from a real dataset on disk.
    ::unsetenv("SPARSENN_DATA_DIR");

    const std::uint64_t steal0 = steal_ticks();
    std::printf("perfbench workload=%s seed=%llu seconds=%zu trace=%zu\n",
                name.c_str(), static_cast<unsigned long long>(seed), seconds,
                trace);
    std::printf("machine nproc=%ld hardware_concurrency=%u simd=%s "
                "compiler=\"%s\" build=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(),
                sparsenn::to_string(sparsenn::active_simd_isa()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);

    const Workload w = make_workload(name, seed);
    std::printf("workload %s: %s\n", w.name.c_str(), w.description.c_str());
    const auto run_pass = [&](Tracer& tracer) {
      return w.serving ? run_serve_zoo(w, seconds, tracer)
                       : run_sweep(w, seconds, tracer);
    };

    std::printf("pass untraced\n");
    Tracer off(false);
    PassReport base = run_pass(off);
    base.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    Tally tally = base.tally;
    bool harness_ok = base.harness_ok;

    std::map<std::string, Metric> layer;
    if (trace) {
      std::printf("pass traced\n");
      Tracer on(true);
      const PassReport traced = run_pass(on);
      tally += traced.tally;
      harness_ok = harness_ok && traced.harness_ok;
      layer = traced.layer;
      // Allocation counts come from the untraced pass: the span recorder
      // allocates as it grows.
      for (const char* key : {"sim.allocs_per_inf", "serve.allocs_per_req"})
        layer[key] = base.layer.at(key);
      for (const auto& [key, m] : base.e2e) {
        const auto it = traced.e2e.find(key);
        if (key == "peak_rss_mb" || it == traced.e2e.end()) continue;
        std::printf("tracing overhead %s untraced=%.6f traced=%.6f "
                    "change=%+.3f%%\n",
                    key.c_str(), m.value, it->second.value,
                    100.0 * (it->second.value - m.value) / m.value);
      }
      const double base_rate = base.e2e.at("inf_per_s").value;
      layer["trace.overhead_pct"] = {
          100.0 * (base_rate - traced.e2e.at("inf_per_s").value) / base_rate,
          "%"};
      const bool written = on.write_chrome(trace_out);
      std::printf("trace spans kept=%zu dropped=%llu file=%s%s\n", on.kept(),
                  static_cast<unsigned long long>(on.dropped()),
                  trace_out.c_str(), written ? "" : " (write FAILED)");
    }

    print_legend(w);
    print_metrics("metric", base.e2e);
    std::printf("metric failed_frac %.6f fraction (shed=%llu errors=%llu "
                "wrong=%llu of attempted=%llu)\n",
                static_cast<double>(tally.failed()) /
                    static_cast<double>(tally.attempted),
                static_cast<unsigned long long>(tally.shed),
                static_cast<unsigned long long>(tally.errors),
                static_cast<unsigned long long>(tally.wrong),
                static_cast<unsigned long long>(tally.attempted));
    print_metrics("layer", trace ? layer : base.layer);
    const unsigned long long steal = steal_ticks() - steal0;
    std::printf("machine steal_ticks_total=%llu\n", steal);

    const bool correct = tally.wrong == 0 && tally.errors == 0 && harness_ok;
    std::printf(
        "RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"e2e\":%s,\"layer\":%s,\"machine\":{\"steal_ticks\":%llu}}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(tally.attempted),
        static_cast<unsigned long long>(tally.failed()),
        json_metrics(base.e2e).c_str(), json_metrics(layer).c_str(), steal);
    std::fflush(stdout);
    if (!correct) {
      std::fprintf(stderr, "error: an output check or the harness "
                           "self-test failed\n");
      return 1;
    }
    return 0;
  } catch (const sparsenn::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
