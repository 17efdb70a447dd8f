// sweep_sparse / sweep_dense: one caller thread driving the cycle engine
// and the analytic engine back to back over a checked image pool.

#include <malloc.h>

#include <cstdio>

#include "harness.hpp"
#include "load.hpp"

namespace perfbench {

using namespace sparsenn;

namespace {

constexpr std::size_t kSetupRepeats = 7;
constexpr std::size_t kOracleSamples = 8;
/// The timed part alternates cycle and analytic windows, one pair per
/// second, so machine noise lands on both; each metric is the median
/// over the windows.
constexpr double kCycleShare = 0.8;
/// Served replay of the checked images through a ServingFrontend: an
/// output check, and the serve.* layer numbers of this workload.
constexpr double kReplayRate = 1000.0;
constexpr double kReplaySeconds = 0.2;
constexpr std::size_t kReplayOutstanding = 16;

}  // namespace

void engine_window(ExecutionEngine& engine, DirectRig& rig, const Workload& w,
                   const ResultTable& expected, double seconds,
                   SpanKind window, SpanKind call, bool keep_latency,
                   Rng& rng, Tracer& tracer, EngineWindows& out) {
  const Span span(tracer, window);
  const std::uint64_t steal0 = steal_ticks();
  const std::size_t first = out.latency_us.size();
  std::uint64_t runs = 0;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + s_to_ns(seconds);
  std::int64_t t1 = start;
  while (t1 < end) {
    const std::size_t m = draw(w.popularity_cdf, rng.uniform());
    const std::size_t i = rng.uniform_index(w.inputs.size());
    const std::uint64_t a0 = allocs_now();
    const std::int64_t t0 = now_ns();
    const SimResult& r = engine.run(*rig.images[m], w.inputs[i],
                                    rig.arenas[m], ValidationMode::kOff);
    t1 = now_ns();
    out.allocs += allocs_now() - a0;
    ++runs;
    const SimResult& want = expected[m][i];
    if (r.total_cycles != want.total_cycles || r.output != want.output)
      ++out.tally.wrong;
    if (keep_latency) out.latency_us.push_back(ns_to_us(t1 - t0));
    tracer.record(call, t0, t1, span.id());
  }
  const double rate = static_cast<double>(runs) / ns_to_s(t1 - start);
  out.rate.push_back(rate);
  out.runs += runs;
  out.tally.attempted += runs;
  const WindowLatency lat = keep_latency
                                ? window_latency(out.latency_us, first)
                                : WindowLatency{};
  if (keep_latency) out.windows.push_back(lat);
  std::printf("window %s runs=%llu inf_per_s=%.3f p50_us=%.3f "
              "p99_us=%.3f steal_ticks=%llu\n",
              span_name(window), static_cast<unsigned long long>(runs), rate,
              lat.p50, lat.p99,
              static_cast<unsigned long long>(steal_ticks() - steal0));
}

void report_latency(const std::vector<WindowLatency>& windows,
                    const std::vector<double>& all_us, PassReport& report) {
  std::vector<double> p50, p99;
  for (const WindowLatency& w : windows) {
    p50.push_back(w.p50);
    p99.push_back(w.p99);
  }
  report.e2e["lat_p50_us"] = {median(p50), "us"};
  report.e2e["lat_p99_us"] = {median(p99), "us"};
  std::printf("latency over the whole run: n=%zu p50=%.3f p99=%.3f "
              "p99.9=%.3f us\n",
              all_us.size(), percentile(all_us, 50), percentile(all_us, 99),
              percentile(all_us, 99.9));
}

void report_engine_layers(const Tracer& tracer, std::uint64_t allocs,
                          std::uint64_t runs, PassReport& report) {
  report.layer["sim.allocs_per_inf"] = {
      static_cast<double>(allocs) / static_cast<double>(runs), "count"};
  if (!tracer.on()) return;
  const auto cycle = tracer.durations_us(SpanKind::kCycleRun);
  const auto analytic = tracer.durations_us(SpanKind::kAnalyticRun);
  report.layer["sim.cycle_run_us.p50"] = {percentile(cycle, 50), "us"};
  report.layer["sim.cycle_run_us.p99"] = {percentile(cycle, 99), "us"};
  report.layer["sim.analytic_run_us.p50"] = {percentile(analytic, 50), "us"};
  report.layer["sim.analytic_run_us.p99"] = {percentile(analytic, 99), "us"};
  report.layer["nn.forward_us"] = {
      median(tracer.durations_us(SpanKind::kForward)), "us"};
  report.layer["sim.compile_ms"] = {
      median(tracer.durations_us(SpanKind::kCompile)) / 1e3, "ms"};
  report.layer["nn.quantize_ms"] = {
      median(tracer.durations_us(SpanKind::kQuantize)) / 1e3, "ms"};
}

PassReport run_sweep(const Workload& w, std::size_t seconds, Tracer& tracer) {
  PassReport report;

  // ---- set-up: quantise, compile, build both engines, and one
  // validated warm-up inference on each. Repeated; the median counts.
  std::unique_ptr<DirectRig> rig;
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    {
      const Span span(tracer, SpanKind::kSetup);
      rig = std::make_unique<DirectRig>();
      rig->nets.push_back(quantize(w.models.front(), tracer, span.id()));
      build_engines(w, *rig, tracer, span.id());
      (void)rig->sim->run(*rig->images.front(), w.inputs.front(),
                          rig->arenas.front(), ValidationMode::kFull);
      (void)rig->analytic->run(*rig->images.front(), w.inputs.front(),
                               rig->arenas.front(), ValidationMode::kFull);
    }
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  // A process sets up once; the repeats are the harness's own. Hand the
  // heap they left free back to the system, or peak_rss_mb would count
  // allocator leftovers (up to ~10 MB, differing by seed) as well.
  malloc_trim(0);

  // ---- checks: oracle, functional model, analytic engine, then the
  // served replay; none of it is timed.
  const Checked checked = check_ladder(w, *rig, kOracleSamples, tracer, 0);
  report.tally += checked.tally;
  std::printf("check %zu images: cycle engine == per-cycle oracle on %zu, "
              "== functional forward and analytic predictions on all; "
              "wrong=%llu\n",
              w.inputs.size(), checked.oracle_checked,
              static_cast<unsigned long long>(checked.tally.wrong));
  report_exact(checked.exact, report);

  Rng rng{w.seed ^ 0x5eed5eed5eedULL};
  {
    const Span span(tracer, SpanKind::kReplay);
    ServingFrontend frontend{ServingOptions{}};
    Tally replay;
    ServeTarget target{frontend, deploy(frontend, w, rig->nets, replay), w,
                       checked.golden};
    OpenLog open;
    ClosedLog closed;
    open_loop(target, kReplayRate, kReplaySeconds, rng, tracer, span.id(),
              open);
    closed_loop(target, kReplayOutstanding, kReplaySeconds, rng, tracer,
                span.id(), closed);
    const ServingStats stats = frontend.stats();
    frontend.shutdown();
    replay += open.tally;
    replay += closed.tally;
    std::printf("check served replay: %llu requests, wrong=%llu shed=%llu "
                "errors=%llu\n",
                static_cast<unsigned long long>(replay.attempted),
                static_cast<unsigned long long>(replay.wrong),
                static_cast<unsigned long long>(replay.shed),
                static_cast<unsigned long long>(replay.errors));
    report.tally += replay;
    report_serving(open, closed, stats, tracer, report);
  }

  // ---- timed: alternating cycle-engine and analytic windows.
  EngineWindows cycle, analytic;
  for (std::size_t r = 0; r < seconds; ++r) {
    engine_window(*rig->sim, *rig, w, checked.cycle, kCycleShare,
                  SpanKind::kWindowCycle, SpanKind::kCycleRun, true, rng,
                  tracer, cycle);
    engine_window(*rig->analytic, *rig, w, checked.golden,
                  1.0 - kCycleShare, SpanKind::kWindowAnalytic,
                  SpanKind::kAnalyticRun, false, rng, tracer, analytic);
  }
  report.tally += cycle.tally;
  report.tally += analytic.tally;

  report.e2e["setup_s"] = {median(setup_s), "s"};
  report.e2e["inf_per_s"] = {median(cycle.rate), "inf/s"};
  report.e2e["analytic_inf_per_s"] = {median(analytic.rate), "inf/s"};
  report_latency(cycle.windows, cycle.latency_us, report);

  report_engine_layers(tracer, cycle.allocs + analytic.allocs,
                       cycle.runs + analytic.runs, report);
  return report;
}

}  // namespace perfbench
