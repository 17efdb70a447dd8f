#pragma once
// Work distribution across the PE array (paper Section V.A/V.C).
//
//   Row-based scheduling (W and U): global row j of the matrix — and
//   activation j of the produced vector — belong to PE (j mod P).
//
//   Column-based scheduling (V): global column j of V belongs to PE
//   (j mod P), i.e. the PE that already stores input activation j;
//   every PE then holds a partial sum of every output row, reduced in
//   the tree. This keeps all PEs busy even though V has only
//   rank (< P) rows.
//
// PeLayerSlice is a non-owning view (see pe/pe.hpp): its W, U and V
// views point straight into the layer's w_t, u and v_t, strided to this
// PE's interleave, so building a slice copies no word. PE p's local row
// r is global row p + r·P, and its local input slot s is global column
// s·P + p. sim::CompiledNetwork builds every slice of every layer once
// per network.

#include <cstddef>

#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "pe/pe.hpp"

namespace sparsenn {

/// The slice of one quantised layer mapped to PE `pe`: format metadata
/// plus views into the layer's own buffers. Keep the layer alive while
/// any PE holds the slice.
PeLayerSlice make_pe_slice(const QuantizedLayer& layer,
                           const ArchParams& params, std::size_t pe,
                           bool use_predictor);

}  // namespace sparsenn
