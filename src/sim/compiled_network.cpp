#include "sim/compiled_network.hpp"

#include <algorithm>

#include "sim/schedule.hpp"

namespace sparsenn {

CompiledNetwork::CompiledNetwork(const QuantizedNetwork& network,
                                 const ArchParams& params,
                                 bool use_predictor)
    : network_(network),
      params_(params),
      use_predictor_(use_predictor),
      num_layers_(network.num_layers()) {
  params_.validate();
  slices_.reserve(num_layers_ * params_.num_pes);
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const QuantizedLayer& layer = network_.layer(l);
    // Worst-case broadcast occupancy of this layer's phases: the V
    // phase multicasts `rank` results, the W phase one flit per
    // nonzero input (≤ the layer's input width).
    max_broadcast_flits_ =
        std::max({max_broadcast_flits_, layer.in_dim(), layer.rank()});
    for (std::size_t pe = 0; pe < params_.num_pes; ++pe)
      slices_.push_back(make_pe_slice(layer, params_, pe, use_predictor));
  }
}

}  // namespace sparsenn
