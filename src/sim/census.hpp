#pragma once
// The event census: a layer's EventCounts as a closed-form function of
// the work each PE does in it. Both engines fill LayerSimResult::events
// from here — the cycle engine from its PEs' input scans and predictor
// banks, the analytic engine from its functional pass — so the counts
// the energy model (arch/energy.hpp) prices have one definition. No
// term depends on timing (a router charges a reduction when its grant
// commits, never for a decision a closed credit window cancels), so
// the counts hold on every fabric; only the cycles are the engines'.

#include <cstddef>
#include <cstdint>
#include <span>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "noc/htree.hpp"

namespace sparsenn {

/// One layer's work on the PE array: the census's whole input.
struct LayerWork {
  std::size_t out_dim = 0;  ///< m: the layer's rows, over every PE
  std::size_t rank = 0;     ///< V/U width when the predictor runs, else 0
  /// Per PE: local nonzero inputs (its LNZD scan of the source file).
  std::span<const std::size_t> pe_nnz_inputs;
  /// Per PE: predicted-active mapped rows (all of them if none run).
  std::span<const std::size_t> pe_active_rows;
};

/// What the census derives: the event counts, and the flit counts of
/// the V and W phases (contention statistics stay zero).
struct LayerCensus {
  EventCounts events;
  NocStats v_noc;
  NocStats w_noc;
};

/// The census of one layer; `cycles` is its elapsed cycle count.
LayerCensus take_census(const ArchParams& params, const LayerWork& work,
                        std::uint64_t cycles);

}  // namespace sparsenn
