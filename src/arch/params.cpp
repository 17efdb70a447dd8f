#include "arch/params.hpp"

#include "common/check.hpp"

namespace sparsenn {

std::string to_string(FlowControl fc) {
  switch (fc) {
    case FlowControl::kPacketBufferCredit: return "packet-buffer-credit";
    case FlowControl::kUnbuffered: return "unbuffered";
  }
  return "unknown";
}

void ArchParams::validate() const {
  expects(num_pes > 0, "need at least one PE");
  expects(router_radix > 1, "router radix must be at least 2");
  expects(num_pes % router_radix == 0,
          "PE count must be a multiple of the router radix");
  expects(leaf_routers() == 1 || leaf_routers() % router_radix == 0,
          "leaf router count must be 1 or a multiple of the radix");
  // 3-level H-tree: root spans radix^3 PEs exactly.
  std::size_t span = 1;
  for (std::size_t l = 0; l < router_levels; ++l) span *= router_radix;
  expects(span == num_pes,
          "router_levels and radix must tile the PE array exactly");
  expects(word_bits == 16, "the datapath model is 16-bit fixed point");
  expects(router_buffer_depth > 0, "router buffers must be non-empty");
  expects(act_regs_per_pe > 0, "activation register file must be non-empty");
  expects(clock_ns > 0.0, "clock period must be positive");
}

ArchParams ArchParams::paper() { return ArchParams{}; }

}  // namespace sparsenn
