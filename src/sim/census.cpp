#include "sim/census.hpp"

#include "common/check.hpp"

namespace sparsenn {

LayerCensus take_census(const ArchParams& params, const LayerWork& work,
                        std::uint64_t cycles) {
  expects(work.pe_nnz_inputs.size() == params.num_pes &&
              work.pe_active_rows.size() == params.num_pes,
          "the census needs every PE's work");
  std::uint64_t n = 0;       // nonzero inputs; each reaches every PE
  std::uint64_t active = 0;  // Σ active rows a_i
  std::uint64_t idle = 0;    // PEs without an active row
  for (std::size_t i = 0; i < params.num_pes; ++i) {
    n += work.pe_nnz_inputs[i];
    active += work.pe_active_rows[i];
    idle += work.pe_active_rows[i] == 0;
  }
  const std::uint64_t m = work.out_dim;
  const std::uint64_t r = work.rank;
  const std::uint64_t pes = params.num_pes;
  const std::uint64_t routers = params.total_routers();
  const std::uint64_t passes = r > 0 ? 2 : 1;  // over inputs, bits: W, V/U

  LayerCensus out;
  // V: each row is reduced once per router on the way up (a radix-k
  // router adds k partials, and (k − 1)·routers = P − 1), then its
  // result is multicast through every router. W: one router per tier
  // up, then the multicast.
  out.v_noc.flit_hops = 2 * r * routers;
  out.v_noc.acc_operations = r * (pes - 1);
  out.v_noc.root_flits = r;
  out.w_noc.flit_hops = n * (params.router_levels + routers);
  out.w_noc.root_flits = n;

  EventCounts& e = out.events;
  e.w_mem_reads = n * active;       // every delivery × every active row
  e.u_mem_reads = m * r;            // every row × rank
  e.v_mem_reads = n * r;            // every local input × rank
  e.macs = e.w_mem_reads + e.u_mem_reads + e.v_mem_reads;
  e.act_reg_reads = n * passes;     // each input read once per pass
  e.act_reg_writes = m;             // write-back of every mapped row
  e.queue_ops = (2 * n + r) * pes;  // push + pop per delivery; V results
  e.predictor_bits = m * passes;    // U writes each bit, W's LNZD reads it
  e.lnzd_scans = n * passes;
  e.router_flits = out.v_noc.flit_hops + out.w_noc.flit_hops;
  e.router_acc_ops = out.v_noc.acc_operations;
  e.cycles = cycles;
  // One cycle per V/U MAC and per partial sum injected (r per PE), and
  // max(1, a_i) per delivery at PE i: Σ max(1, a_i) = active + idle.
  e.pe_active_cycles =
      e.u_mem_reads + e.v_mem_reads + pes * r + n * (active + idle);
  return out;
}

}  // namespace sparsenn
