#pragma once
// Access-counted local SRAM banks of one PE (the per-PE W/U/V memories
// of paper Table II). The bank addresses a rows × cols block of 16-bit
// words and checks the configured capacity — a layer that does not fit
// the distributed memory is a configuration error the simulator must
// surface, exactly like exceeding the real chip's 128KB/PE would be.
//
// The bank is a *view* over externally owned words, which models the
// weights already resident on chip: loading a layer binds the view
// instead of copying the slice. The W bank views the network's single
// column-major W (QuantizedLayer::w_t) in place through two strides;
// the U and V banks view a CompiledNetwork's packed row-major slices.
// The backing storage must outlive the simulation of the loaded layer;
// every read is counted either way.

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace sparsenn {

/// A read-only rows × cols block of 16-bit words addressed through two
/// strides: word (r, c) is base[r·row_stride + c·col_stride]. A packed
/// row-major block has col_stride 1; PE p's W slice of an m-row layer
/// on P PEs has base w_t + p, row stride P and column stride m.
struct WordView {
  const std::int16_t* base = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t row_stride = 0;
  std::size_t col_stride = 1;

  /// The packed row-major block `words` with `cols`-word rows.
  static WordView row_major(std::span<const std::int16_t> words,
                            std::size_t cols) {
    expects(cols > 0 && words.size() % cols == 0,
            "a row-major block holds whole rows");
    return {words.data(), words.size() / cols, cols, cols, 1};
  }

  std::size_t size() const noexcept { return rows * cols; }
  std::int16_t at(std::size_t r, std::size_t c) const noexcept {
    return base[r * row_stride + c * col_stride];
  }
};

class SramBank {
 public:
  SramBank(std::string name, std::size_t capacity_kb)
      : name_(std::move(name)), capacity_words_(capacity_kb * 1024 / 2) {}

  const std::string& name() const noexcept { return name_; }
  std::size_t capacity_words() const noexcept { return capacity_words_; }

  /// Binds the bank to one layer's slice. Throws when its rows × cols
  /// words exceed the physical capacity.
  void load(const WordView& view) {
    expects(view.size() <= capacity_words_,
            "layer slice exceeds SRAM capacity");
    view_ = view;
  }

  /// Binds a packed row-major block of `stride`-word rows.
  void load_rows(std::span<const std::int16_t> words, std::size_t stride) {
    load(WordView::row_major(words, stride));
  }

  std::int16_t read_row_word(std::size_t row, std::size_t offset) {
    expects(row < view_.rows && offset < view_.cols,
            "SRAM read out of range");
    ++reads_;
    return view_.at(row, offset);
  }

  /// Row r of a bank bound to contiguous rows (col_stride 1).
  std::span<const std::int16_t> row(std::size_t r) const {
    expects(r < view_.rows, "SRAM row out of range");
    expects(view_.col_stride == 1, "SRAM rows are not contiguous");
    return {view_.base + r * view_.row_stride, view_.cols};
  }

  std::size_t num_rows() const noexcept { return view_.rows; }

  /// The bound view, for the kernel layer's bulk MAC loops
  /// (common/kernels.hpp). No read charge — callers account the whole
  /// burst with note_reads().
  const WordView& view() const noexcept { return view_; }

  /// Bulk read charge for a kernel that touched `n` words — keeps the
  /// access counter identical to n single-word reads.
  void note_reads(std::uint64_t n) noexcept { reads_ += n; }

  std::uint64_t reads() const noexcept { return reads_; }

 private:
  std::string name_;
  std::size_t capacity_words_;
  WordView view_;
  std::uint64_t reads_ = 0;
};

}  // namespace sparsenn
