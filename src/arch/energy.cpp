#include "arch/energy.hpp"

namespace sparsenn {

EventCounts& EventCounts::operator+=(const EventCounts& other) noexcept {
  w_mem_reads += other.w_mem_reads;
  u_mem_reads += other.u_mem_reads;
  v_mem_reads += other.v_mem_reads;
  macs += other.macs;
  act_reg_reads += other.act_reg_reads;
  act_reg_writes += other.act_reg_writes;
  queue_ops += other.queue_ops;
  predictor_bits += other.predictor_bits;
  lnzd_scans += other.lnzd_scans;
  router_flits += other.router_flits;
  router_acc_ops += other.router_acc_ops;
  cycles += other.cycles;
  pe_active_cycles += other.pe_active_cycles;
  return *this;
}

EnergyModel::EnergyModel(const ArchParams& params,
                         const EnergyConstants& constants)
    : params_(params), constants_(constants) {
  params_.validate();
  const auto characteristics = [&](std::size_t kb) {
    return sram_model({.capacity_kb = kb,
                       .word_bits = params.word_bits,
                       .tech_nm = params.tech_nm});
  };
  const auto w = characteristics(params.w_mem_kb_per_pe);
  const auto u = characteristics(params.u_mem_kb_per_pe);
  const auto v = characteristics(params.v_mem_kb_per_pe);
  w_read_pj_ = w.read_energy_pj;
  u_read_pj_ = u.read_energy_pj;
  v_read_pj_ = v.read_energy_pj;

  const auto pes = static_cast<double>(params.num_pes);
  leakage_mw_ = (w.leakage_mw + u.leakage_mw + v.leakage_mw) * pes;

  const double tech = static_cast<double>(params.tech_nm) / 65.0;
  tech_logic_scale_ = tech * tech;
}

EnergyReport EnergyModel::report(const EventCounts& counts) const {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double s = tech_logic_scale_;

  EnergyReport out;
  out.w_mem_uj = n(counts.w_mem_reads) * w_read_pj_ * 1e-6;
  out.uv_mem_uj = (n(counts.u_mem_reads) * u_read_pj_ +
                   n(counts.v_mem_reads) * v_read_pj_) *
                  1e-6;
  out.datapath_uj = (n(counts.macs) * constants_.mac_pj +
                     (n(counts.act_reg_reads) + n(counts.act_reg_writes)) *
                         constants_.act_reg_pj +
                     n(counts.queue_ops) * constants_.queue_pj +
                     n(counts.predictor_bits) * constants_.predictor_bit_pj +
                     n(counts.lnzd_scans) * constants_.lnzd_pj) *
                    s * 1e-6;
  out.noc_uj = (n(counts.router_flits) * constants_.router_flit_pj +
                n(counts.router_acc_ops) * constants_.router_acc_pj) *
               s * 1e-6;

  const double total_pe_cycles =
      n(counts.cycles) * static_cast<double>(params_.num_pes);
  const double idle_cycles =
      total_pe_cycles > n(counts.pe_active_cycles)
          ? total_pe_cycles - n(counts.pe_active_cycles)
          : 0.0;
  out.clock_uj = (n(counts.pe_active_cycles) *
                      constants_.clock_tree_pj_per_pe_cycle +
                  idle_cycles * constants_.idle_pj_per_pe_cycle) *
                 s * 1e-6;

  out.elapsed_ns = n(counts.cycles) * params_.clock_ns;
  out.leakage_uj = leakage_mw_ * out.elapsed_ns * 1e-6;  // mW·ns = fJ·1e6

  out.total_uj = out.w_mem_uj + out.uv_mem_uj + out.datapath_uj +
                 out.noc_uj + out.clock_uj + out.leakage_uj;
  out.avg_power_mw =
      out.elapsed_ns > 0.0 ? out.total_uj / out.elapsed_ns * 1e6 : 0.0;
  return out;
}

}  // namespace sparsenn
