#pragma once
// A compact SRAM model standing in for CACTI 6.5 (paper Section VI.A).
//
// Functional forms follow CACTI's qualitative behaviour:
//   area   ~ bitcell area × bits × periphery overhead (overhead shrinks
//            with capacity as decoders/sense-amps amortise),
//   energy ~ base × (tech / 28nm)^2 × (capacity / 1MB)^0.35,
//   access ~ base × capacity^0.4.
//
// The energy form is anchored to the scaling figure the paper itself
// derives from CACTI: a read costs "roughly 11x" going from a 1MB
// 28nm SRAM to an 8MB 65nm one — (65/28)^2 × 8^0.35 ≈ 11.1.

#include <cstddef>

namespace sparsenn {

/// Geometry + technology of one SRAM macro.
struct SramConfig {
  std::size_t capacity_kb = 128;
  std::size_t word_bits = 16;
  int tech_nm = 65;
};

/// Modelled characteristics of the macro.
struct SramCharacteristics {
  double area_um2 = 0.0;
  double read_energy_pj = 0.0;   ///< per word read
  double access_time_ns = 0.0;
  double leakage_mw = 0.0;       ///< static power of the macro
};

/// Evaluates the model. Throws std::invalid_argument for a zero-sized
/// or non-positive-tech configuration.
SramCharacteristics sram_model(const SramConfig& config);

/// The scaling ratio the paper quotes in Section VI.C: read energy of
/// (to_kb @ to_nm) over (from_kb @ from_nm). ≈11 for 1MB/28nm → 8MB/65nm.
double read_energy_scale(std::size_t from_kb, int from_nm,
                         std::size_t to_kb, int to_nm);

}  // namespace sparsenn
