#pragma once
// The local SRAM banks of one PE (the per-PE W/U/V memories of paper
// Table II). The bank addresses a rows × cols block of 16-bit
// words and checks the configured capacity — a layer that does not fit
// the distributed memory is a configuration error the simulator must
// surface, exactly like exceeding the real chip's 128KB/PE would be.
//
// The bank is a *view* over externally owned words, which models the
// weights already resident on chip: loading a layer binds the view
// instead of copying the slice. Every bank views one of the quantised
// layer's own buffers in place through two strides: W the column-major
// w_t, U the row-major u and V the column-major v_t (the last two one
// contiguous rank-word row per local row or input slot). The backing
// storage must outlive the simulation of the loaded layer; the census
// (sim/census.hpp) counts the reads.

#include <cstdint>
#include <span>

#include "common/check.hpp"

namespace sparsenn {

/// A read-only rows × cols block of 16-bit words addressed through two
/// strides: word (r, c) is base[r·row_stride + c·col_stride]. PE p's
/// slice of an m-row layer on P PEs views W with base w_t + p, row
/// stride P and column stride m, and U with base u + p·rank, row stride
/// P·rank and column stride 1 (V likewise in v_t).
struct WordView {
  const std::int16_t* base = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t row_stride = 0;
  std::size_t col_stride = 1;

  std::size_t size() const noexcept { return rows * cols; }
  std::int16_t at(std::size_t r, std::size_t c) const noexcept {
    return base[r * row_stride + c * col_stride];
  }
};

class SramBank {
 public:
  explicit SramBank(std::size_t capacity_kb)
      : capacity_words_(capacity_kb * 1024 / 2) {}

  std::size_t capacity_words() const noexcept { return capacity_words_; }

  /// Binds the bank to one layer's slice. Throws when its rows × cols
  /// words exceed the physical capacity.
  void load(const WordView& view) {
    expects(view.size() <= capacity_words_,
            "layer slice exceeds SRAM capacity");
    view_ = view;
  }

  std::int16_t read_row_word(std::size_t row, std::size_t offset) const {
    expects(row < view_.rows && offset < view_.cols,
            "SRAM read out of range");
    return view_.at(row, offset);
  }

  /// Row r of a bank whose rows are contiguous (col_stride 1).
  std::span<const std::int16_t> row(std::size_t r) const {
    expects(r < view_.rows, "SRAM row out of range");
    expects(view_.col_stride == 1, "SRAM rows are not contiguous");
    return {view_.base + r * view_.row_stride, view_.cols};
  }

  std::size_t num_rows() const noexcept { return view_.rows; }

  /// The bound view, for the kernel layer's bulk MAC loops
  /// (common/kernels.hpp).
  const WordView& view() const noexcept { return view_; }

 private:
  std::size_t capacity_words_;
  WordView view_;
};

}  // namespace sparsenn
