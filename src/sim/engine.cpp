#include "sim/engine.hpp"

#include "common/check.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/trace.hpp"

namespace sparsenn {

EventCounts SimResult::total_events() const {
  EventCounts total;
  for (const LayerSimResult& l : layers) total += l.events;
  return total;
}

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kCycle:
      return "cycle";
    case EngineKind::kAnalytic:
      return "analytic";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  if (name == "cycle") return EngineKind::kCycle;
  if (name == "analytic") return EngineKind::kAnalytic;
  return std::nullopt;
}

std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind,
                                             const ArchParams& params) {
  switch (kind) {
    case EngineKind::kCycle:
      return std::make_unique<AcceleratorSim>(params);
    case EngineKind::kAnalytic:
      return std::make_unique<AnalyticEngine>(params);
  }
  ensures(false, "unknown EngineKind");
  return nullptr;
}

void record_layer_trace(TraceLog& trace, std::size_t layer,
                        const LayerSimResult& result) {
  std::uint64_t start = 0;
  const auto emit = [&](const char* phase, std::uint64_t cycles,
                        std::uint64_t flits, std::uint64_t macs) {
    if (cycles == 0) return;
    trace.record(TraceRecord{.inference = 0,  // stamped by record()
                             .layer = layer,
                             .phase = phase,
                             .start_cycle = start,
                             .cycles = cycles,
                             .flits = flits,
                             .macs = macs,
                             .nnz_inputs = result.nnz_inputs,
                             .active_rows = result.active_rows});
    start += cycles;
  };
  emit("V", result.v_cycles, result.v_noc.flit_hops,
       result.events.v_mem_reads);
  emit("U", result.u_cycles, 0, result.events.u_mem_reads);
  emit("W", result.w_cycles, result.w_noc.flit_hops,
       result.events.w_mem_reads);
}

}  // namespace sparsenn
