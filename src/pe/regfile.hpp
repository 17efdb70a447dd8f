#pragma once
// The PE's pair of activation register files (paper Fig. 5): ping-pong
// buffers that swap source/destination roles from layer to layer. Each
// file holds the PE's interleaved slice of one layer's activation
// vector: global activation j lives in PE (j mod num_pes) at local slot
// (j div num_pes).

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace sparsenn {

/// One 16-bit register file. Accesses are metered by the PE's
/// EventCounts (act_reg_reads / act_reg_writes), not here.
class ActRegFile {
 public:
  explicit ActRegFile(std::size_t num_regs) : regs_(num_regs, 0) {}

  std::size_t size() const noexcept { return regs_.size(); }

  void write(std::size_t slot, std::int16_t value) {
    expects(slot < regs_.size(), "register slot out of range");
    regs_[slot] = value;
  }

  void clear() { std::fill(regs_.begin(), regs_.end(), 0); }

  /// Read view for the LNZD scans.
  std::span<const std::int16_t> raw() const noexcept { return regs_; }

 private:
  std::vector<std::int16_t> regs_;
};

/// The ping-pong pair.
class PingPongRegFiles {
 public:
  explicit PingPongRegFiles(std::size_t num_regs)
      : files_{ActRegFile{num_regs}, ActRegFile{num_regs}} {}

  ActRegFile& source() noexcept { return files_[src_]; }
  const ActRegFile& source() const noexcept { return files_[src_]; }
  ActRegFile& destination() noexcept { return files_[1 - src_]; }
  const ActRegFile& destination() const noexcept { return files_[1 - src_]; }

  /// Layer boundary: destination becomes next layer's source.
  void swap() noexcept { src_ = 1 - src_; }

 private:
  ActRegFile files_[2];
  std::size_t src_ = 0;
};

}  // namespace sparsenn
