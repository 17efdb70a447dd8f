#pragma once
// A quantised network compiled for the PE array.
//
// The simulator's work splits into input-dependent state (activations,
// partial sums, NoC traffic) and network-only state (the per-PE
// interleaved W/U/V slice views and format metadata).
// CompiledNetwork builds the latter exactly once per (network, arch,
// use_predictor), and loading a layer into a PE binds views instead of
// copying words (PeLayerSlice, pe/pe.hpp).
//
// No weight is copied: each PE's slice is a set of strided views into
// the network's own buffers (QuantizedLayer::w_t, u and v_t). PE p's
// local row r is global row p + r·P, so its W view has base w_t + p,
// row stride P and column stride m, and its U and V views have base
// u + p·rank and v_t + p·rank with row stride P·rank. The weights are
// held once however many images are compiled from the network, and the
// image itself stores only the slice table.
//
// The compiled image is immutable and read-only shared: every layer,
// every inference and every BatchRunner worker thread reads the same
// storage concurrently without synchronisation. It holds its own copy
// of the network it was compiled from (QuantizedNetwork copies share
// one immutable layer list), so the views stay valid and the image
// keeps running that version whatever happens to the caller's object
// afterwards: destroyed, assigned over, or given a new threshold. For
// the same reason a copy or move of the image is as valid as the
// original: both share the layer list their views point into.
//
// A deployment compiles its images once, one per uv mode, and keeps
// them for every inference: System::prepare(),
// ServingFrontend::register_model and the CLI simulate command each
// build their own. An image costs one allocation (the slice table).

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "pe/pe.hpp"

namespace sparsenn {

class CompiledNetwork {
 public:
  /// Slices every layer for every PE. `use_predictor` is baked in
  /// because it decides whether the slices view U and V at all (the
  /// paper's uv_on vs uv_off deployments are different images).
  CompiledNetwork(const QuantizedNetwork& network, const ArchParams& params,
                  bool use_predictor);

  /// The version this image was compiled from (the image's own copy).
  const QuantizedNetwork& network() const noexcept { return network_; }
  const ArchParams& params() const noexcept { return params_; }
  bool use_predictor() const noexcept { return use_predictor_; }
  std::size_t num_layers() const noexcept { return num_layers_; }
  std::size_t num_pes() const noexcept { return params_.num_pes; }

  /// Worst-case broadcast-channel occupancy of any phase of any layer
  /// (rank for V, input width for W) — the simulator pre-sizes the
  /// channel with this once per run, keeping send() allocation-free
  /// regardless of input density.
  std::size_t max_broadcast_flits() const noexcept {
    return max_broadcast_flits_;
  }

  /// The read-only slice of layer `layer` mapped to PE `pe`.
  const PeLayerSlice& slice(std::size_t layer, std::size_t pe) const {
    return slices_.at(layer * params_.num_pes + pe);
  }

 private:
  QuantizedNetwork network_;
  ArchParams params_;
  bool use_predictor_;
  std::size_t num_layers_;
  std::size_t max_broadcast_flits_ = 0;

  std::vector<PeLayerSlice> slices_;  ///< [layer * num_pes + pe]
};

}  // namespace sparsenn
