#pragma once
// The bytes left in an input stream, which the model and IDX loaders
// check a header's declared size against before they allocate it.

#include <cstdint>
#include <istream>
#include <optional>

namespace sparsenn {

/// Bytes between the read position of `in` and its end; the read
/// position is restored. nullopt when the stream cannot seek (a pipe,
/// say).
inline std::optional<std::uint64_t> bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || !in.good()) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace sparsenn
