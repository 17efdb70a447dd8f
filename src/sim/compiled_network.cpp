#include "sim/compiled_network.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
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

  // Counting pass: size every pool exactly once, so appending never
  // reallocates and each slice binds its spans as it is appended.
  detail::PeSliceWords total;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const QuantizedLayer& layer = network_.layer(l);
    // Worst-case broadcast occupancy of this layer's phases: the V
    // phase multicasts `rank` results, the W phase one flit per
    // nonzero input (≤ the layer's input width).
    max_broadcast_flits_ =
        std::max({max_broadcast_flits_, layer.in_dim(), layer.rank()});
    for (std::size_t pe = 0; pe < params_.num_pes; ++pe)
      total += detail::pe_slice_words(layer, params_, pe, use_predictor);
  }
  rows_pool_.reserve(total.rows);
  u_pool_.reserve(total.u);
  v_pool_.reserve(total.v);
  slices_.reserve(num_layers_ * params_.num_pes);

  const auto pool_bases = [this] {
    return std::array<const void*, 3>{rows_pool_.data(), u_pool_.data(),
                                      v_pool_.data()};
  };
  const auto bases = pool_bases();
  for (std::size_t l = 0; l < num_layers_; ++l) {
    for (std::size_t pe = 0; pe < params_.num_pes; ++pe) {
      slices_.push_back(detail::append_pe_slice(
          network_.layer(l), params_, pe, use_predictor, rows_pool_,
          u_pool_, v_pool_));
    }
  }
  ensures(pool_bases() == bases,
          "a slice pool moved after its spans were bound");
}

}  // namespace sparsenn
