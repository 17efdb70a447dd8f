#pragma once
// The vectorised fixed-point kernel layer.
//
// Every hot integer inner loop of the simulator routes through this
// table: the functional layer pass (nn/quantized.cpp), the analytic
// engine's nonzero census, the PE's V/U phase datapaths (pe/pe.cpp)
// and the event core's whole-layer W pass (sim/event_core.cpp). Each
// entry has a scalar reference implementation plus
// AVX2/SSE4.2/NEON specialisations selected at runtime
// (common/simd.hpp); all implementations accumulate in exact 64-bit
// integer arithmetic, so every table produces bit-identical results —
// tests/kernels_test.cpp pins this property across widths, alignments,
// ragged tails and int16 saturation extremes.

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

namespace sparsenn {

/// One resolved set of kernel entry points. All pointers are non-null
/// in every table.
struct KernelTable {
  SimdIsa isa = SimdIsa::kScalar;

  /// acc[j] += w[j]·a for j < n (the PE's V-phase column MAC burst).
  void (*axpy_i16_i64)(std::int64_t* acc, const std::int16_t* w,
                       std::int16_t a, std::size_t n);

  /// Whole input-sparse column-major matvec:
  /// acc[j] += Σ_i cols[idx[i]·m + j] · act[idx[i]] for j < m, where
  /// `cols` is the transposed matrix (one m-wide row per input) and
  /// idx the ascending nonzero input indices. The AVX2 and NEON forms
  /// sweep the columns in pairs, one fused two-column axpy per pair of
  /// inputs, which halves the accumulator-bank traffic of repeated
  /// axpy; the SSE4.2 form sweeps one column at a time.
  void (*sparse_matvec_i16_i64)(std::int64_t* acc,
                                const std::int16_t* cols, std::size_t m,
                                const std::uint32_t* idx, std::size_t nnz,
                                const std::int16_t* act);

  /// Writes the indices of the nonzero entries of v[0..n) into out
  /// (ascending; capacity must be ≥ n) and returns the count — the
  /// LNZD scan.
  std::size_t (*nonzero_scan_i16)(const std::int16_t* v, std::size_t n,
                                  std::uint32_t* out);

  /// U-phase row MACs + predictor-bit pack over rows `stride` words
  /// apart (a PE's U view: every P-th row of the layer's U): for each
  /// r < rows,
  /// bits[r] = (Σ_{k<rank} u[r·stride+k]·s[k]) > threshold ? 1 : 0.
  void (*predict_bits_i16)(const std::int16_t* u, std::size_t stride,
                           std::size_t rows, std::size_t rank,
                           const std::int16_t* s, std::int64_t threshold,
                           std::uint8_t* bits);

  /// Input quantisation: out[i] = clamp(nearbyint(in[i]·scale)) into
  /// int16, matching Fixed16::quantize_raw bit-for-bit. `scale` is a
  /// power of two (so the product is exact in float) and the rounding
  /// is the platform default round-to-nearest-even — the same mode the
  /// vector convert instructions implement.
  void (*quantize_f32_i16)(const float* in, std::size_t n, float scale,
                           std::int16_t* out);
};

/// The dispatched table (resolved once; see common/simd.hpp for the
/// override rules). Thread-safe.
const KernelTable& kernels() noexcept;

/// The scalar reference table — the golden definition every
/// specialisation must match bit-for-bit.
const KernelTable& scalar_kernels() noexcept;

/// The table for a specific ISA, or nullptr when this build/CPU cannot
/// run it. kernels_for(kScalar) never returns nullptr.
const KernelTable* kernels_for(SimdIsa isa) noexcept;

}  // namespace sparsenn
