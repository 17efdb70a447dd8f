#pragma once
// 16-bit fixed-point arithmetic matching the SparseNN datapath (Table II:
// "Quantization scheme: 16-bit fixed point").
//
// The hardware stores activations and weights as signed 16-bit Q(m.n)
// values and accumulates in a wider register. We model:
//   - a runtime-configurable Q format (FixedPointFormat),
//   - saturating conversion from float with round-to-nearest.
// The MAC datapath's single post-accumulation shifter (exact products
// accumulated wide, rounded and saturated back to 16 bits at
// write-back) is rescale_to_i16 in nn/quantized.hpp.
//
// Keeping the format runtime-valued (rather than a template parameter)
// lets experiments sweep precision without recompiling.

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace sparsenn {

/// Signed Q(int_bits . frac_bits) format, total 16 bits including sign.
struct FixedPointFormat {
  int frac_bits = 9;  ///< default Q6.9: range ±63.998, resolution ~2e-3

  constexpr int int_bits() const noexcept { return 15 - frac_bits; }
  constexpr double scale() const noexcept {
    return static_cast<double>(std::int64_t{1} << frac_bits);
  }
  constexpr double max_value() const noexcept { return 32767.0 / scale(); }
  constexpr double min_value() const noexcept { return -32768.0 / scale(); }
  constexpr double resolution() const noexcept { return 1.0 / scale(); }

  friend bool operator==(const FixedPointFormat&,
                         const FixedPointFormat&) = default;
};

/// A single 16-bit fixed-point value tagged with its format.
class Fixed16 {
 public:
  Fixed16() = default;
  Fixed16(double value, FixedPointFormat fmt) noexcept
      : raw_(quantize_raw(value, fmt)), fmt_(fmt) {}

  static Fixed16 from_raw(std::int16_t raw, FixedPointFormat fmt) noexcept {
    Fixed16 v;
    v.raw_ = raw;
    v.fmt_ = fmt;
    return v;
  }

  std::int16_t raw() const noexcept { return raw_; }
  FixedPointFormat format() const noexcept { return fmt_; }
  double to_double() const noexcept {
    return static_cast<double>(raw_) / fmt_.scale();
  }

  /// Saturating round-to-nearest quantisation of a real value.
  static std::int16_t quantize_raw(double value,
                                   FixedPointFormat fmt) noexcept;

 private:
  std::int16_t raw_ = 0;
  FixedPointFormat fmt_{};
};

/// Quantises a float span into raw int16 words.
std::vector<std::int16_t> quantize(std::span<const float> values,
                                   FixedPointFormat fmt);

/// Reconstructs floats from raw int16 words.
std::vector<float> dequantize(std::span<const std::int16_t> raw,
                              FixedPointFormat fmt);

/// Chooses the fixed-point format whose representable range covers
/// max|values| (with one guard bit), maximising fractional precision.
/// Falls back to the widest-range format if values exceed all formats.
FixedPointFormat choose_format(std::span<const float> values);

/// The format choose_format picks for a span whose max|v| is `max_abs`
/// (choose_format is this applied to its scan).
FixedPointFormat format_for_max_abs(double max_abs) noexcept;

/// Worst-case quantisation signal-to-noise ratio in dB for the span under
/// the given format; used by tests to validate format choice.
double quantization_snr_db(std::span<const float> values,
                           FixedPointFormat fmt);

}  // namespace sparsenn
