#include "arch/cacti_lite.hpp"

#include <cmath>

#include "common/check.hpp"

namespace sparsenn {
namespace {

// Anchors (65nm LP, single-port 6T SRAM):
constexpr double kBitcellUm2At65 = 0.508;  ///< 6T cell, 65nm
constexpr double kEnergyBasePj = 13.0;     ///< per-word read, 1MB @ 28nm
constexpr double kAccessBaseNs = 0.25;     ///< capacity^0.4 prefactor
constexpr double kLeakageUwPerKbAt65 = 1.1;

double tech_scale_linear(int tech_nm) {
  return static_cast<double>(tech_nm) / 65.0;
}

}  // namespace

SramCharacteristics sram_model(const SramConfig& config) {
  expects(config.capacity_kb > 0, "SRAM capacity must be positive");
  expects(config.word_bits > 0, "word width must be positive");
  expects(config.tech_nm > 0, "technology node must be positive");

  const double bits =
      static_cast<double>(config.capacity_kb) * 1024.0 * 8.0;
  const double kb = static_cast<double>(config.capacity_kb);
  const double tech = tech_scale_linear(config.tech_nm);

  SramCharacteristics out;

  // Area: bitcell scales with the square of feature size; periphery
  // overhead amortises with capacity.
  const double bitcell = kBitcellUm2At65 * tech * tech;
  const double overhead = 1.70 + 2.0 / std::sqrt(kb);
  out.area_um2 = bits * bitcell * overhead;

  // Read energy: the paper's CACTI-derived scaling law.
  const double tech28 = static_cast<double>(config.tech_nm) / 28.0;
  out.read_energy_pj =
      kEnergyBasePj * tech28 * tech28 * std::pow(kb / 1024.0, 0.35);

  // Access time grows with capacity; ~1.74ns at 128KB (the paper notes
  // ">1.7ns", which forces the 2ns clock target).
  out.access_time_ns = kAccessBaseNs * std::pow(kb, 0.4);

  out.leakage_mw = kLeakageUwPerKbAt65 * kb * tech * tech / 1000.0;
  return out;
}

double read_energy_scale(std::size_t from_kb, int from_nm,
                         std::size_t to_kb, int to_nm) {
  const auto e = [](std::size_t kb, int nm) {
    return sram_model({.capacity_kb = kb, .word_bits = 16, .tech_nm = nm})
        .read_energy_pj;
  };
  return e(to_kb, to_nm) / e(from_kb, from_nm);
}

}  // namespace sparsenn
