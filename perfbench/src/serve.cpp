// The request generators and the serve_zoo workload: a ServingFrontend
// on the analytic engine, driven open loop (Poisson arrivals) and closed
// loop (a fixed number outstanding) from the harness thread.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>

#include "common/fault.hpp"
#include "load.hpp"

namespace perfbench {

using namespace sparsenn;

namespace {

constexpr std::size_t kSetupRepeats = 31;
constexpr std::size_t kOracleSamples = 32;
/// 8000 req/s is far below saturation (~10^5 req/s on 4 vCPUs) yet high
/// enough that the batch-close timer shapes latency; a fixed rate means
/// a faster commit is tested at the same load.
constexpr double kOpenRate = 8000.0;
constexpr std::size_t kClosedOutstanding = 256;
/// Each second of the run is one round: the open loop, the closed loop
/// and the direct analytic window in turn, so machine noise lands on all
/// three.
constexpr double kOpenShare = 0.5;
constexpr double kClosedShare = 0.3;
/// Generator self-test: every batch is delayed by kSelftestDelayUs, at a
/// rate low enough that requests do not queue behind the delay.
constexpr double kSelftestRate = 250.0;
constexpr double kSelftestSeconds = 0.3;
constexpr std::uint64_t kSelftestDelayUs = 2000;

constexpr double kInf = std::numeric_limits<double>::infinity();

BatchCounts batch_counts(const ServingStats& s) {
  return {s.batches, s.completed + s.failed, s.timeout_closes};
}

void add_difference(BatchCounts& into, const BatchCounts& before,
                    const BatchCounts& after) {
  into.batches += after.batches - before.batches;
  into.requests += after.requests - before.requests;
  into.timeout_closes += after.timeout_closes - before.timeout_closes;
}

/// One request in flight, with its client-side stamps (ns).
struct Outstanding {
  std::future<ServeResult> future;
  std::int64_t due = 0;   ///< scheduled send (open loop)
  std::int64_t send = 0;  ///< submit() entered
  std::int64_t ret = 0;   ///< submit() returned
  std::size_t model = 0;
  std::size_t input = 0;
  std::uint64_t request = 0;
};

Outstanding send_one(ServeTarget& target, Rng& rng) {
  Outstanding o;
  o.model = draw(target.workload.popularity_cdf, rng.uniform());
  o.input = rng.uniform_index(target.workload.inputs.size());
  o.request = ++target.sent;
  SubmitOptions options;
  options.use_predictor = target.workload.models[o.model].use_predictor;
  o.send = now_ns();
  o.future = target.frontend.submit(target.handles[o.model],
                                    target.workload.inputs[o.input], options);
  o.ret = now_ns();
  return o;
}

/// Takes the result and checks it; true when it is kOk and correct.
bool settle(ServeTarget& target, Outstanding& o, ServeResult& r,
            Tally& tally) {
  r = o.future.get();
  ++tally.attempted;
  if (r.status == ServeStatus::kOk) {
    if (r.result == target.golden[o.model][o.input]) return true;
    ++tally.wrong;
  } else if (r.status == ServeStatus::kEngineError) {
    ++tally.errors;
  } else {
    ++tally.shed;
  }
  return false;
}

/// Stage spans of one request, reconstructed from the client stamps and
/// the server's own durations. The server stamps enqueue inside
/// submit(); the spans start its queue wait at submit() entry.
void record_stages(Tracer& tracer, const Outstanding& o, const ServeResult& r,
                   std::int64_t start, std::int64_t seen, bool open,
                   std::uint64_t parent) {
  if (!tracer.on()) return;
  const std::uint64_t id = tracer.record(
      open ? SpanKind::kOpenRequest : SpanKind::kClosedRequest, start, seen,
      parent, o.request);
  if (open)
    tracer.record(SpanKind::kOpenGenLate, o.due, o.send, id, o.request);
  tracer.record(open ? SpanKind::kOpenSubmit : SpanKind::kClosedSubmit,
                o.send, o.ret, id, o.request);
  if (r.status != ServeStatus::kOk) return;
  const std::int64_t closed = o.send + std::llround(r.queue_us * 1e3);
  const std::int64_t done = o.send + std::llround(r.total_us * 1e3);
  tracer.record(open ? SpanKind::kOpenQueue : SpanKind::kClosedQueue, o.send,
                closed, id, o.request);
  tracer.record(open ? SpanKind::kOpenExec : SpanKind::kClosedExec, closed,
                done, id, o.request);
  tracer.record(open ? SpanKind::kOpenHandoff : SpanKind::kClosedHandoff,
                done, seen, id, o.request);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of one stage over the requests at or above the p99 latency.
struct Tail {
  std::size_t n = 0;
  RequestTimes mean;
};

Tail p99_tail(const OpenLog& open) {
  Tail tail;
  const double p99 = percentile(open.latency_us, 99);
  for (const RequestTimes& t : open.ok) {
    if (t.latency < p99) continue;
    ++tail.n;
    tail.mean.latency += t.latency;
    tail.mean.gen_late += t.gen_late;
    tail.mean.submit += t.submit;
    tail.mean.queue += t.queue;
    tail.mean.exec += t.exec;
    tail.mean.handoff += t.handoff;
  }
  const double n = static_cast<double>(std::max<std::size_t>(tail.n, 1));
  for (double* v : {&tail.mean.latency, &tail.mean.gen_late,
                    &tail.mean.submit, &tail.mean.queue, &tail.mean.exec,
                    &tail.mean.handoff})
    *v /= n;
  return tail;
}

/// Shows the open loop measures server time: with every micro-batch
/// delayed by kSelftestDelayUs through the fault framework, latency must
/// rise by the delay (at least 95% of it, less than twice it). The
/// comparison is of 10th percentiles: host interference only ever adds
/// latency, and on a noisy host it can lift either loop's median.
bool generator_selftest(ServeTarget& target, Rng& rng, Tracer& tracer,
                        Tally& tally) {
  const Span span(tracer, SpanKind::kSelftest);
  OpenLog base, delayed;
  open_loop(target, kSelftestRate, kSelftestSeconds, rng, tracer, span.id(),
            base);
  {
    fault::ScopedFaultStorm storm(target.workload.seed);
    storm.add({.point = "serve.worker.batch",
               .action = fault::FaultAction::kDelay,
               .probability = 1.0,
               .delay_us = kSelftestDelayUs});
    open_loop(target, kSelftestRate, kSelftestSeconds, rng, tracer,
              span.id(), delayed);
  }
  tally += base.tally;
  tally += delayed.tally;
  const double before = percentile(base.latency_us, 10);
  const double after = percentile(delayed.latency_us, 10);
  const double rise = after - before;
  const auto delay = static_cast<double>(kSelftestDelayUs);
  const bool ok = rise >= 0.95 * delay && rise < 2.0 * delay;
  std::printf("check generator self-test: serve.worker.batch delay %.0f us "
              "moved p10 latency %.3f -> %.3f us (+%.3f us; medians %.3f -> "
              "%.3f us): %s\n",
              delay, before, after, rise, median(base.latency_us),
              median(delayed.latency_us), ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

std::vector<std::size_t> deploy(
    ServingFrontend& frontend, const Workload& w,
    const std::vector<std::unique_ptr<QuantizedNetwork>>& nets,
    Tally& tally) {
  std::vector<std::size_t> handles;
  for (std::size_t m = 0; m < nets.size(); ++m)
    handles.push_back(frontend.register_model(*nets[m], w.models[m].arch));
  for (std::size_t m = 0; m < nets.size(); ++m) {
    SubmitOptions options;
    options.use_predictor = w.models[m].use_predictor;
    ++tally.attempted;
    if (frontend.submit(handles[m], w.inputs.front(), options).get().status !=
        ServeStatus::kOk)
      ++tally.errors;
  }
  return handles;
}

void open_loop(ServeTarget& target, double rate, double seconds, Rng& rng,
               Tracer& tracer, std::uint64_t parent, OpenLog& log) {
  const Span span(tracer, SpanKind::kWindowOpen, parent);
  const BatchCounts before = batch_counts(target.frontend.stats());
  const std::uint64_t steal0 = steal_ticks();
  const std::size_t first = log.latency_us.size();
  const auto gap = [&] {
    return s_to_ns(-std::log(1.0 - rng.uniform()) / rate);
  };
  std::vector<Outstanding> live;
  live.reserve(1024);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + s_to_ns(seconds);
  std::int64_t due = start + gap();
  while (due < end || !live.empty()) {
    // Poll every outstanding future between sends; a completion is
    // stamped the first time it is seen.
    for (std::size_t k = 0; k < live.size();) {
      Outstanding& o = live[k];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const std::int64_t seen = now_ns();
      ServeResult r;
      const bool ok = settle(target, o, r, log.tally);
      const double latency = ok ? ns_to_us(seen - o.due) : kInf;
      const double late = ns_to_us(o.send - o.due);
      log.latency_us.push_back(latency);
      log.gen_late_max_us = std::max(log.gen_late_max_us, late);
      if (ok)
        log.ok.push_back({latency, late, ns_to_us(o.ret - o.send),
                          r.queue_us, r.exec_us,
                          ns_to_us(seen - o.send) - r.total_us});
      record_stages(tracer, o, r, o.due, seen, true, span.id());
      live[k] = std::move(live.back());
      live.pop_back();
    }
    if (due < end && now_ns() >= due) {
      live.push_back(send_one(target, rng));
      live.back().due = due;
      due += gap();
    }
  }
  add_difference(log.batches, before, batch_counts(target.frontend.stats()));
  const WindowLatency lat = window_latency(log.latency_us, first);
  log.windows.push_back(lat);
  std::printf("window %s requests=%zu p50_us=%.3f p99_us=%.3f "
              "steal_ticks=%llu\n",
              span_name(SpanKind::kWindowOpen), log.latency_us.size() - first,
              lat.p50, lat.p99,
              static_cast<unsigned long long>(steal_ticks() - steal0));
}

void closed_loop(ServeTarget& target, std::size_t outstanding, double seconds,
                 Rng& rng, Tracer& tracer, std::uint64_t parent,
                 ClosedLog& log) {
  const Span span(tracer, SpanKind::kWindowClosed, parent);
  const BatchCounts before = batch_counts(target.frontend.stats());
  const std::uint64_t steal0 = steal_ticks();
  std::vector<Outstanding> slots(outstanding);
  std::uint64_t completed = 0;
  const std::uint64_t allocs0 = allocs_now();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + s_to_ns(seconds);
  for (Outstanding& slot : slots) slot = send_one(target, rng);
  std::size_t live = slots.size();
  while (live > 0) {
    for (Outstanding& slot : slots) {
      if (!slot.future.valid() ||
          slot.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready)
        continue;
      const std::int64_t seen = now_ns();
      ServeResult r;
      (void)settle(target, slot, r, log.tally);
      record_stages(tracer, slot, r, slot.send, seen, false, span.id());
      ++completed;
      if (seen < end)
        slot = send_one(target, rng);
      else
        --live;
    }
  }
  const std::int64_t stop = now_ns();
  log.allocs += allocs_now() - allocs0;
  log.completed += completed;
  const double rate = static_cast<double>(completed) / ns_to_s(stop - start);
  log.rate.push_back(rate);
  add_difference(log.batches, before, batch_counts(target.frontend.stats()));
  std::printf("window %s requests=%llu inf_per_s=%.3f steal_ticks=%llu\n",
              span_name(SpanKind::kWindowClosed),
              static_cast<unsigned long long>(completed), rate,
              static_cast<unsigned long long>(steal_ticks() - steal0));
}

void report_serving(const OpenLog& open, const ClosedLog& closed,
                    const ServingStats& stats, const Tracer& tracer,
                    PassReport& report) {
  report.layer["serve.batch_mean"] = {
      ratio(static_cast<double>(closed.batches.requests),
            static_cast<double>(closed.batches.batches)),
      "requests"};
  report.layer["serve.timeout_close_frac"] = {
      ratio(static_cast<double>(open.batches.timeout_closes),
            static_cast<double>(open.batches.batches)),
      "fraction"};
  report.layer["serve.allocs_per_req"] = {
      ratio(static_cast<double>(closed.allocs),
            static_cast<double>(closed.completed)),
      "count"};
  report.layer["core.zoo_hit_ratio"] = {
      ratio(static_cast<double>(stats.zoo_hits),
            static_cast<double>(stats.zoo_hits + stats.zoo_compiles)),
      "ratio"};
  report.layer["core.zoo_compiles"] = {
      static_cast<double>(stats.zoo_compiles), "count"};

  // Latency = gen_late + queue + exec + handoff exactly; submit() runs
  // inside gen_late's end and the queue's start, so it overlaps both.
  const Tail tail = p99_tail(open);
  const double total = std::max(tail.mean.latency, 1e-9);
  std::printf(
      "attribution open-loop p99_us=%.3f, mean over the %zu requests "
      "at or above it: latency %.3f us = gen_late %.3f (%.1f%%) + queue "
      "%.3f (%.1f%%) + exec %.3f (%.1f%%) + handoff %.3f (%.1f%%); submit "
      "%.3f us\n",
      percentile(open.latency_us, 99), tail.n, tail.mean.latency,
      tail.mean.gen_late, 100.0 * tail.mean.gen_late / total,
      tail.mean.queue, 100.0 * tail.mean.queue / total, tail.mean.exec,
      100.0 * tail.mean.exec / total, tail.mean.handoff,
      100.0 * tail.mean.handoff / total, tail.mean.submit);
  report.layer["serve.tail_gen_late_us"] = {tail.mean.gen_late, "us"};
  report.layer["serve.tail_queue_us"] = {tail.mean.queue, "us"};
  report.layer["serve.tail_exec_us"] = {tail.mean.exec, "us"};
  report.layer["serve.tail_handoff_us"] = {tail.mean.handoff, "us"};
  report.layer["serve.gen_late_us.max"] = {open.gen_late_max_us, "us"};

  if (!tracer.on()) return;
  const auto p = [&](const char* name, std::vector<double> d) {
    report.layer[std::string(name) + ".p50"] = {percentile(d, 50), "us"};
    report.layer[std::string(name) + ".p99"] = {percentile(d, 99), "us"};
  };
  std::vector<double> submit = tracer.durations_us(SpanKind::kOpenSubmit);
  const std::vector<double> closed_submit =
      tracer.durations_us(SpanKind::kClosedSubmit);
  submit.insert(submit.end(), closed_submit.begin(), closed_submit.end());
  p("serve.submit_us", std::move(submit));
  p("serve.queue_us", tracer.durations_us(SpanKind::kOpenQueue));
  p("serve.exec_us", tracer.durations_us(SpanKind::kClosedExec));
  p("serve.handoff_us", tracer.durations_us(SpanKind::kOpenHandoff));
  report.layer["serve.gen_late_us.p50"] = {
      median(tracer.durations_us(SpanKind::kOpenGenLate)), "us"};
}

PassReport run_serve_zoo(const Workload& w, std::size_t seconds,
                         Tracer& tracer) {
  PassReport report;

  // ---- set-up: quantise every model, build the frontend, register the
  // models and send one warm-up request to each (its image compiles).
  // Repeated; the median counts. The rig owns the networks, so it is
  // declared before (and outlives) the frontend that references them.
  DirectRig rig;
  std::unique_ptr<ServingFrontend> frontend;
  std::vector<std::size_t> handles;
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    frontend.reset();
    rig.nets.clear();
    const std::int64_t t0 = now_ns();
    {
      const Span span(tracer, SpanKind::kSetup);
      for (const ModelSpec& spec : w.models)
        rig.nets.push_back(quantize(spec, tracer, span.id()));
      frontend = std::make_unique<ServingFrontend>(ServingOptions{});
      handles = deploy(*frontend, w, rig.nets, report.tally);
    }
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  malloc_trim(0);  // as in run_sweep: peak_rss_mb counts one deployment

  // ---- checks on the direct engines (untimed): the goldens every
  // served result must equal, then the generator self-test.
  build_engines(w, rig, tracer, 0);
  const Checked checked = check_ladder(w, rig, kOracleSamples, tracer, 0);
  report.tally += checked.tally;
  std::printf("check %zu model-input pairs: cycle engine == per-cycle oracle "
              "on %zu, == functional forward and analytic predictions on "
              "all; wrong=%llu\n",
              w.models.size() * w.inputs.size(), checked.oracle_checked,
              static_cast<unsigned long long>(checked.tally.wrong));
  report_exact(checked.exact, report);

  ServeTarget target{*frontend, handles, w, checked.golden};
  Rng rng{w.seed ^ 0x5eed5eed5eedULL};
  report.harness_ok = generator_selftest(target, rng, tracer, report.tally);

  // ---- timed rounds.
  OpenLog open;
  ClosedLog closed;
  EngineWindows analytic;
  open.latency_us.reserve(static_cast<std::size_t>(
      kOpenRate * static_cast<double>(seconds) * kOpenShare * 1.2 + 1024));
  open.ok.reserve(open.latency_us.capacity());
  for (std::size_t r = 0; r < seconds; ++r) {
    open_loop(target, kOpenRate, kOpenShare, rng, tracer, 0, open);
    closed_loop(target, kClosedOutstanding, kClosedShare, rng, tracer, 0,
                closed);
    engine_window(*rig.analytic, rig, w, checked.golden,
                  1.0 - kOpenShare - kClosedShare,
                  SpanKind::kWindowAnalytic, SpanKind::kAnalyticRun, false,
                  rng, tracer, analytic);
  }
  const ServingStats stats = frontend->stats();
  frontend->shutdown();
  report.tally += open.tally;
  report.tally += closed.tally;
  report.tally += analytic.tally;

  report.e2e["setup_s"] = {median(setup_s), "s"};
  report.e2e["inf_per_s"] = {median(closed.rate), "inf/s"};
  report.e2e["analytic_inf_per_s"] = {median(analytic.rate), "inf/s"};
  report_latency(open.windows, open.latency_us, report);

  report_engine_layers(tracer, analytic.allocs, analytic.runs, report);
  report_serving(open, closed, stats, tracer, report);
  return report;
}

}  // namespace perfbench
