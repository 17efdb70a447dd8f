// Ablation of the V-matrix scheduling (design choice of Section V.C):
// row-based scheduling maps rows to PEs and starves the array when the
// matrix has fewer rows than PEs (rank r < 64); the paper's column-
// based scheduling keeps utilisation near 100% by mapping columns and
// reducing partial sums in the tree.
//
// Expected shape: row-based utilisation ≈ r/64 for r < 64; column-based
// stays high for every rank (paper: "close to 100% even when the rank
// size r is as low as 16").

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "arch/params.hpp"
#include "common/table.hpp"
#include "noc/htree.hpp"

namespace {

using sparsenn::ArchParams;

/// Execution cost of one matvec on the PE array.
struct ScheduleEstimate {
  std::uint64_t cycles = 0;
  double pe_utilization = 0.0;  ///< fraction of PE-cycles doing MACs
};

double utilization(std::size_t rows, std::size_t nnz_in,
                   std::uint64_t cycles, const ArchParams& params) {
  const double useful =
      static_cast<double>(nnz_in) * static_cast<double>(rows);
  const double offered =
      static_cast<double>(cycles) * static_cast<double>(params.num_pes);
  return offered > 0.0 ? useful / offered : 0.0;
}

/// Row-based: cycles ≈ nnz_inputs × max_rows_per_pe — the utilisation
/// collapses when the matrix has fewer rows than PEs.
ScheduleEstimate estimate_row_schedule(std::size_t rows, std::size_t nnz_in,
                                       const ArchParams& params) {
  const std::size_t per_pe =
      (rows + params.num_pes - 1) / params.num_pes;  // slowest PE
  ScheduleEstimate out;
  out.cycles = static_cast<std::uint64_t>(nnz_in) *
               std::max<std::size_t>(1, per_pe);
  out.pe_utilization = utilization(rows, nnz_in, out.cycles, params);
  return out;
}

/// Column-based (V-style): local MACs plus the pipelined tree
/// reduction.
ScheduleEstimate estimate_column_schedule(std::size_t rows,
                                          std::size_t nnz_in,
                                          const ArchParams& params) {
  // Local phase: each PE MACs its local nonzeros against its V columns,
  // rows MACs per nonzero; local nonzeros are nnz/P on average but the
  // slowest PE gates — assume balanced interleaving (ceil).
  const std::size_t local_nnz =
      (nnz_in + params.num_pes - 1) / params.num_pes;
  const std::uint64_t local_cycles =
      static_cast<std::uint64_t>(local_nnz) * rows;
  // Reduction: pipelined, one row per cycle after the H-tree flight
  // time up and back down (the analytic engine's term).
  const std::uint64_t reduce_cycles = rows +
                                      sparsenn::htree_flight_cycles(params) +
                                      params.router_pipeline_stages;
  ScheduleEstimate out;
  out.cycles = local_cycles + reduce_cycles;
  out.pe_utilization = utilization(rows, nnz_in, out.cycles, params);
  return out;
}

}  // namespace

int main() {
  using namespace sparsenn;

  const ArchParams params = ArchParams::paper();
  const std::size_t nnz_in = 400;  // typical nonzero inputs per layer

  print_section(std::cout,
                "Ablation — V matvec scheduling (rank × n, n = 1000)");
  Table table({"rank", "row-based cycles", "row util(%)",
               "column-based cycles", "col util(%)", "speedup(x)"});
  for (const std::size_t rank : {4, 8, 16, 25, 32, 50, 64, 100, 128}) {
    const ScheduleEstimate row =
        estimate_row_schedule(rank, nnz_in, params);
    const ScheduleEstimate col =
        estimate_column_schedule(rank, nnz_in, params);
    table.add_row({Cell{rank}, Cell{row.cycles},
                   Cell{100.0 * row.pe_utilization, 1}, Cell{col.cycles},
                   Cell{100.0 * col.pe_utilization, 1},
                   Cell{static_cast<double>(row.cycles) /
                            static_cast<double>(col.cycles),
                        2}});
  }
  table.print(std::cout);
  table.save_csv("ablation_schedule.csv");

  std::cout << "\nRow-based scheduling leaves 64 - r PEs idle when the V "
               "matrix has\nr < 64 rows; column-based scheduling (the "
               "paper's choice) spreads the\ncolumns over all PEs and "
               "reduces partial sums in the H-tree's ACC stage.\n";
  return 0;
}
