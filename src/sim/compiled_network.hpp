#pragma once
// A quantised network compiled for the PE array.
//
// The simulator's work splits into input-dependent state (activations,
// partial sums, NoC traffic) and network-only state (the per-PE
// interleaved W/U/V slices, row maps and format metadata).
// CompiledNetwork builds the latter exactly once per (network, arch,
// use_predictor), and loading a layer into a PE binds views instead of
// copying words (PeLayerSlice, pe/pe.hpp).
//
// W is never copied: each PE's W slice is a strided view into the
// network's one column-major W buffer (QuantizedLayer::w_t). PE p's
// local row r of input column c is w_t[c·m + p + r·P], so the view has
// base p, row stride P and column stride m, and W is held once
// however many images are compiled from the network. Only the row maps
// and the U/V words (under 1% of the weights; the U-phase kernel reads
// contiguous U rows) are packed into this image's pools.
//
// The compiled image is immutable and read-only shared: every layer,
// every inference and every BatchRunner worker thread reads the same
// storage concurrently without synchronisation. It holds its own copy
// of the network it was compiled from (QuantizedNetwork copies share
// one immutable layer list), so the W views stay valid and the image
// keeps running that version whatever happens to the caller's object
// afterwards: destroyed, assigned over, or given a new threshold.
//
// core/model_zoo.hpp closes the remaining recompile-per-call hole:
// single-shot sweeps (System::simulate, the CLI simulate command, the
// fig/ablation benches) fetch images from a ModelZoo — a thread-safe
// LRU keyed on (arch, network version, uv mode) — instead of compiling
// per call.

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "pe/pe.hpp"

namespace sparsenn {

class CompiledNetwork {
 public:
  /// Slices every layer for every PE. `use_predictor` is baked in
  /// because it decides whether U/V words are packed at all (the
  /// paper's uv_on vs uv_off deployments are different images).
  CompiledNetwork(const QuantizedNetwork& network, const ArchParams& params,
                  bool use_predictor);

  // Movable (vector moves keep heap buffers, so the slice views stay
  // valid); copying would re-point nothing, so it is deleted.
  CompiledNetwork(CompiledNetwork&&) noexcept = default;
  CompiledNetwork& operator=(CompiledNetwork&&) noexcept = default;
  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

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

  // Packed storage, layer-major then PE-major; never resized after
  // construction so the views below stay valid for the object's life.
  std::vector<std::uint32_t> rows_pool_;
  std::vector<std::int16_t> u_pool_;
  std::vector<std::int16_t> v_pool_;

  std::vector<PeLayerSlice> slices_;  ///< [layer * num_pes + pe]
};

}  // namespace sparsenn
