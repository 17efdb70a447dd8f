#include "sim/result_arena.hpp"

namespace sparsenn {

void ResultArena::reserve(const CompiledNetwork& compiled) {
  const QuantizedNetwork& network = compiled.network();
  const std::size_t num_layers = compiled.num_layers();

  result_.layers.resize(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l)
    result_.layers[l].activations.reserve(network.layer(l).out_dim());
  if (num_layers > 0) {
    result_.output.reserve(network.layer(num_layers - 1).out_dim());
    input_scratch_.reserve(network.layer(0).in_dim());
  }
}

}  // namespace sparsenn
