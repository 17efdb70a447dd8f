#pragma once
// The microarchitectural parameters of SparseNN (paper Table II) plus
// the derived quantities the simulator and the models need. A single
// ArchParams value flows through the whole hardware stack so an
// experiment can scale the design (PE count, memory sizes, buffer
// depths) coherently.

#include <cstdint>
#include <string>

namespace sparsenn {

/// NoC flow-control styles; the paper uses buffered credit flow control
/// and the ablation bench compares against an unbuffered design.
enum class FlowControl {
  kPacketBufferCredit,  ///< paper: "Packet-buffer with credit"
  kUnbuffered,          ///< single outstanding transfer per level
};

std::string to_string(FlowControl fc);

/// Table II of the paper, with every derived constant the rest of the
/// hardware model consumes.
struct ArchParams {
  // --- Table II values ---
  std::size_t num_pes = 64;
  std::size_t word_bits = 16;          ///< 16-bit fixed point
  std::size_t w_mem_kb_per_pe = 128;   ///< on-chip W memory per PE
  std::size_t u_mem_kb_per_pe = 8;
  std::size_t v_mem_kb_per_pe = 8;
  std::size_t act_regs_per_pe = 64;    ///< activation register number
  FlowControl flow_control = FlowControl::kPacketBufferCredit;

  // --- NoC shape: 3-level H-tree with radix-4 routers ---
  std::size_t router_radix = 4;
  std::size_t router_levels = 3;
  std::size_t router_buffer_depth = 4;  ///< flit buffer per input port
  std::size_t router_pipeline_stages = 4;  ///< RC, SA, ST(+ACC), LT

  // --- Timing / technology ---
  double clock_ns = 2.0;    ///< target critical path (Sec. VI.C)
  int tech_nm = 65;         ///< TSMC 65nm LP

  // --- PE micro ---
  std::size_t pe_pipeline_stages = 5;  ///< addr, mem, mul, add, wb
  std::size_t act_queue_depth = 8;

  // --- Derived ---
  std::size_t leaf_routers() const noexcept {
    return num_pes / router_radix;
  }
  std::size_t internal_routers() const noexcept {
    return leaf_routers() / router_radix;
  }
  std::size_t total_routers() const noexcept {
    // Sum of all radix-ary tiers down to the single root: 16+4+1 = 21
    // at paper scale.
    std::size_t total = 0;
    for (std::size_t n = num_pes / router_radix;; n /= router_radix) {
      total += n;
      if (n <= 1) break;
    }
    return total;
  }
  /// Max activations per layer: act_regs × PEs (Sec. VI.C: 64×64 = 4K).
  std::size_t max_activations() const noexcept {
    return act_regs_per_pe * num_pes;
  }
  /// Total on-chip W memory (the paper's 8 MB headline).
  std::size_t total_w_mem_kb() const noexcept {
    return w_mem_kb_per_pe * num_pes;
  }
  double clock_hz() const noexcept { return 1e9 / clock_ns; }
  /// Peak throughput: each PE does 1 MAC (2 ops) per cycle.
  double peak_gops() const noexcept {
    return 2.0 * static_cast<double>(num_pes) * clock_hz() / 1e9;
  }
  /// Words a weight memory can hold.
  std::size_t w_words_per_pe() const noexcept {
    return w_mem_kb_per_pe * 1024 * 8 / word_bits;
  }

  /// Validates internal consistency (radix divides PE count, levels
  /// match, etc.); throws std::invalid_argument on bad configs.
  void validate() const;

  /// Field-by-field equality. Each serving worker finds the engines
  /// for a batch's arch with it, so it builds no key.
  bool operator==(const ArchParams&) const = default;

  /// The paper's configuration (all defaults).
  static ArchParams paper();
};

}  // namespace sparsenn
