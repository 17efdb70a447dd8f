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
// PeLayerSlice is a non-owning view (see pe/pe.hpp). Its W view points
// straight into the layer's column-major W (QuantizedLayer::w_t); the
// batch engine packs the U/V words and row maps of every slice of every
// layer into sim::CompiledNetwork once per network. OwnedPeSlice below
// carries its own U/V storage for single-slice uses (tests, single-PE
// experiments).

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "pe/pe.hpp"

namespace sparsenn {

/// Row-based map: which global rows land on PE `pe`.
std::vector<std::uint32_t> rows_for_pe(std::size_t num_rows,
                                       std::size_t pe,
                                       std::size_t num_pes);

/// Backing storage plus the view for one PE's slice of one layer (W is
/// viewed in the layer itself). Move-only: vector moves keep their heap
/// buffers, so `view` stays valid across moves, while a copy would
/// silently dangle.
struct OwnedPeSlice {
  std::vector<std::uint32_t> global_rows;
  std::vector<std::int16_t> u_words;
  std::vector<std::int16_t> v_words;
  PeLayerSlice view;

  OwnedPeSlice() = default;
  OwnedPeSlice(OwnedPeSlice&&) noexcept = default;
  OwnedPeSlice& operator=(OwnedPeSlice&&) noexcept = default;
  OwnedPeSlice(const OwnedPeSlice&) = delete;
  OwnedPeSlice& operator=(const OwnedPeSlice&) = delete;
};

/// Builds the full per-PE slice of one quantised layer with its own
/// storage. Keep the OwnedPeSlice and the layer alive while any PE holds
/// `view`.
OwnedPeSlice make_pe_slice(const QuantizedLayer& layer,
                           const ArchParams& params, std::size_t pe,
                           bool use_predictor);

namespace detail {

/// How many entries one PE's slice of one layer appends to each pool.
struct PeSliceWords {
  std::size_t rows = 0;
  std::size_t u = 0;
  std::size_t v = 0;

  PeSliceWords& operator+=(const PeSliceWords& o) noexcept {
    rows += o.rows;
    u += o.u;
    v += o.v;
    return *this;
  }
};

PeSliceWords pe_slice_words(const QuantizedLayer& layer,
                            const ArchParams& params, std::size_t pe,
                            bool use_predictor);

/// Shared by CompiledNetwork and make_pe_slice: computes the scalar
/// metadata, binds the W view into `layer.w_t`, appends this PE's row
/// indices and U/V words to the given pools, and returns the slice with
/// its spans bound to the appended words. Every pool must already have
/// spare capacity for pe_slice_words() more entries (checked), so no
/// append reallocates: the spans stay valid for as long as the caller
/// does not grow the pools past their capacity.
PeLayerSlice append_pe_slice(const QuantizedLayer& layer,
                             const ArchParams& params, std::size_t pe,
                             bool use_predictor,
                             std::vector<std::uint32_t>& rows_pool,
                             std::vector<std::int16_t>& u_pool,
                             std::vector<std::int16_t>& v_pool);

}  // namespace detail

}  // namespace sparsenn
