#pragma once
// Binary model serialization.
//
// A trained network (weights + predictor factors) can be saved and
// reloaded so the expensive training step and the hardware-simulation
// step can run in separate processes — the deployment flow a real
// accelerator SDK needs. The format is a small tagged binary layout:
//
//   magic "SPNN" | version u32 | layer-size list | per-layer W
//   | predictor flags | per-predictor U, V
//
// All integers are little-endian u64 unless noted; matrices are stored
// as rows, cols, then row-major float32 data. Loading checks every
// matrix header against the topology and the bytes left in the stream
// before it allocates, and throws std::runtime_error on malformed input
// or on a stream that cannot report its length.

#include <iosfwd>
#include <string>

#include "nn/network.hpp"

namespace sparsenn {

/// Serialises the network (weights and any predictors) to a stream.
void save_network(const Network& network, std::ostream& out);
void save_network(const Network& network, const std::string& path);

/// Reconstructs a network saved by save_network. Throws
/// std::runtime_error on a malformed or truncated stream.
Network load_network(std::istream& in);
Network load_network(const std::string& path);

/// Current format version (bumped on layout changes).
constexpr std::uint32_t kModelFormatVersion = 1;

}  // namespace sparsenn
