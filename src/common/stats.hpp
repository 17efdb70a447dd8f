#pragma once
// Streaming statistics (Welford) and small helpers shared by the
// simulator's counters and the training metrics.

#include <cstdint>
#include <span>

namespace sparsenn {

/// Numerically stable running mean/variance/min/max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< population variance
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fraction of elements equal to zero; the paper's sparsity metric.
double sparsity_fraction(std::span<const float> values,
                         float tolerance = 0.0f) noexcept;

}  // namespace sparsenn
