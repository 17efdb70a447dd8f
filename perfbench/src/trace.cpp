// Clocks, percentiles, /proc/stat steal ticks and the span recorder.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "harness.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_epoch = Clock::now();

constexpr std::array<const char*, static_cast<std::size_t>(SpanKind::kCount)>
    kSpanNames = {
        "setup",
        "check",
        "serve.replay",
        "serve.selftest",
        "window.cycle",
        "window.analytic",
        "window.open",
        "window.closed",
        "nn.quantize",
        "sim.compile",
        "sim.cycle_run",
        "sim.oracle_run",
        "sim.analytic_run",
        "nn.forward",
        "serve.open.request",
        "serve.open.gen_late",
        "serve.open.submit",
        "serve.open.queue",
        "serve.open.exec",
        "serve.open.handoff",
        "serve.closed.request",
        "serve.closed.submit",
        "serve.closed.queue",
        "serve.closed.exec",
        "serve.closed.handoff",
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

WindowLatency window_latency(const std::vector<double>& latency_us,
                             std::size_t first) {
  const std::vector<double> window(
      latency_us.begin() + static_cast<std::ptrdiff_t>(first),
      latency_us.end());
  return {percentile(window, 50), percentile(window, 99)};
}

std::uint64_t steal_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0;
  for (std::uint64_t& f : field)
    if (!(stat >> f)) return 0;
  return field[7];
}

const char* span_name(SpanKind kind) noexcept {
  return kSpanNames[static_cast<std::size_t>(kind)];
}

Tracer::Tracer(bool on) : on_(on) {
  if (on_) records_.reserve(kMaxRecords);
}

std::uint64_t Tracer::record(SpanKind kind, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
  if (!on_) return 0;
  const std::uint64_t id = next_id();
  add(kind, start_ns, end_ns, id, parent, request);
  return id;
}

void Tracer::add(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t id, std::uint64_t parent,
                 std::uint64_t request) {
  if (!on_) return;
  durations_[static_cast<std::size_t>(kind)].push_back(
      static_cast<float>(ns_to_us(end_ns - start_ns)));
  if (records_.size() < kMaxRecords)
    records_.push_back({kind, start_ns, end_ns, id, parent, request});
  else
    ++dropped_;
}

std::vector<double> Tracer::durations_us(SpanKind kind) const {
  const std::vector<float>& d = durations_[static_cast<std::size_t>(kind)];
  return {d.begin(), d.end()};
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // Complete ("X") events, microsecond timestamps. Request spans get a
  // lane per request id so concurrent requests do not overlap in one row.
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_dropped\":"
      << dropped_ << "},\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const Record& r : records_) {
    const unsigned long long lane = r.request ? 1 + r.request % 256 : 0;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  first ? "" : ",\n", span_name(r.kind), lane,
                  ns_to_us(r.start_ns), ns_to_us(r.end_ns - r.start_ns),
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.request));
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer& tracer, SpanKind kind, std::uint64_t parent,
           std::uint64_t request)
    : tracer_(tracer), kind_(kind), parent_(parent), request_(request) {
  if (!tracer_.on()) return;
  id_ = tracer_.next_id();
  start_ns_ = now_ns();
}

Span::~Span() {
  if (tracer_.on())
    tracer_.add(kind_, start_ns_, now_ns(), id_, parent_, request_);
}

}  // namespace perfbench
