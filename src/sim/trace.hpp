#pragma once
// Simulation tracing: a structured record of what the accelerator did,
// layer by layer and phase by phase, exportable as CSV for offline
// analysis (the role waveform dumps play in the paper's RTL flow,
// at event rather than signal granularity).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sparsenn {

/// One phase of one layer of one inference.
struct TraceRecord {
  std::size_t inference = 0;
  std::size_t layer = 0;
  std::string phase;            ///< "V", "U", "W"
  std::uint64_t start_cycle = 0;
  std::uint64_t cycles = 0;
  std::uint64_t flits = 0;      ///< NoC flits moved in this phase
  std::uint64_t macs = 0;
  std::size_t nnz_inputs = 0;
  std::size_t active_rows = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Append-only trace log. Not thread-safe; one per simulator.
class TraceLog {
 public:
  void begin_inference() noexcept { ++inference_; }
  void record(TraceRecord record);

  std::size_t size() const noexcept { return records_.size(); }
  const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }

  /// Phase totals across the whole log (quick sanity aggregation).
  std::uint64_t total_cycles(const std::string& phase) const;

  void write_csv(std::ostream& out) const;
  void save_csv(const std::string& path) const;
  void clear() noexcept;

 private:
  std::vector<TraceRecord> records_;
  std::size_t inference_ = 0;
};

}  // namespace sparsenn
