#pragma once
// Event-based energy model.
//
// The census (sim/census.hpp), the one source of counts for both
// engines, turns each layer's per-PE work into microarchitectural
// events (memory reads, MACs, register-file and queue accesses, router
// traversals); this model converts counts plus elapsed cycles into
// energy and power, the way PrimeTime converts toggling activity into
// mW in the paper's flow. Per-event energies come from cacti_lite for
// the SRAMs and from 65nm datapath constants for logic, with leakage
// charged per cycle.

#include <cstdint>

#include "arch/cacti_lite.hpp"
#include "arch/params.hpp"

namespace sparsenn {

/// Everything the census counts for a run. Aggregated over all PEs and
/// routers. The weight SRAMs are read-only during inference: a layer's
/// outputs go to the activation register file (act_reg_writes).
struct EventCounts {
  std::uint64_t w_mem_reads = 0;   ///< 16-bit words read from W SRAM
  std::uint64_t u_mem_reads = 0;
  std::uint64_t v_mem_reads = 0;
  std::uint64_t macs = 0;          ///< multiply-accumulate operations
  std::uint64_t act_reg_reads = 0;
  std::uint64_t act_reg_writes = 0;
  std::uint64_t queue_ops = 0;     ///< activation queue push/pop
  std::uint64_t predictor_bits = 0;  ///< predictor bank reads/writes
  std::uint64_t lnzd_scans = 0;
  std::uint64_t router_flits = 0;  ///< flit hops across any router
  std::uint64_t router_acc_ops = 0;  ///< reduction adds in routers
  std::uint64_t cycles = 0;        ///< elapsed cycles (for leakage/clock)
  std::uint64_t pe_active_cycles = 0;  ///< Σ over PEs of busy cycles

  EventCounts& operator+=(const EventCounts& other) noexcept;
  friend bool operator==(const EventCounts&, const EventCounts&) = default;
};

/// Per-event dynamic energies in pJ (65nm reference; scaled by the
/// model for other nodes).
struct EnergyConstants {
  double mac_pj = 3.1;             ///< 16-bit multiply + 32-bit add
  double act_reg_pj = 0.45;        ///< register file word access
  double queue_pj = 0.6;
  double predictor_bit_pj = 0.03;
  double lnzd_pj = 0.35;
  double router_flit_pj = 1.8;     ///< one hop: SA + ST + LT
  double router_acc_pj = 0.9;
  double clock_tree_pj_per_pe_cycle = 1.1;  ///< clocking when active
  double idle_pj_per_pe_cycle = 0.25;       ///< clock-gated residual
};

/// Energy split by source, in µJ, plus derived power.
struct EnergyReport {
  double w_mem_uj = 0.0;
  double uv_mem_uj = 0.0;
  double datapath_uj = 0.0;   ///< MACs + registers + queues + LNZD
  double noc_uj = 0.0;
  double clock_uj = 0.0;
  double leakage_uj = 0.0;
  double total_uj = 0.0;
  double avg_power_mw = 0.0;  ///< total energy / elapsed time

  double elapsed_ns = 0.0;
};

/// Converts counts into an energy/power report.
class EnergyModel {
 public:
  explicit EnergyModel(const ArchParams& params,
                       const EnergyConstants& constants = {});

  EnergyReport report(const EventCounts& counts) const;

  /// Per-word read energies actually used (exposed for tests/benches).
  double w_read_pj() const noexcept { return w_read_pj_; }
  double u_read_pj() const noexcept { return u_read_pj_; }
  double v_read_pj() const noexcept { return v_read_pj_; }
  double leakage_mw() const noexcept { return leakage_mw_; }

 private:
  ArchParams params_;
  EnergyConstants constants_;
  double w_read_pj_;
  double u_read_pj_;
  double v_read_pj_;
  double leakage_mw_;  ///< whole-chip static power
  double tech_logic_scale_;
};

}  // namespace sparsenn
