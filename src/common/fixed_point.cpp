#include "common/fixed_point.hpp"

#include <algorithm>
#include <cmath>

namespace sparsenn {

std::int16_t Fixed16::quantize_raw(double value,
                                   FixedPointFormat fmt) noexcept {
  const double scaled = value * fmt.scale();
  const double rounded = std::nearbyint(scaled);
  const double clamped = std::clamp(rounded, -32768.0, 32767.0);
  return static_cast<std::int16_t>(clamped);
}

std::vector<std::int16_t> quantize(std::span<const float> values,
                                   FixedPointFormat fmt) {
  std::vector<std::int16_t> out(values.size());
  std::transform(values.begin(), values.end(), out.begin(),
                 [fmt](float v) { return Fixed16::quantize_raw(v, fmt); });
  return out;
}

std::vector<float> dequantize(std::span<const std::int16_t> raw,
                              FixedPointFormat fmt) {
  std::vector<float> out(raw.size());
  const double inv_scale = 1.0 / fmt.scale();
  std::transform(raw.begin(), raw.end(), out.begin(), [inv_scale](
                                                          std::int16_t v) {
    return static_cast<float>(v * inv_scale);
  });
  return out;
}

FixedPointFormat choose_format(std::span<const float> values) {
  // max|v| over independent lanes instead of one compare-latency chain.
  // Max is exact in any order and skips NaN in every lane, so the
  // result equals the one-lane scan; |v| in float is exact too.
  constexpr std::size_t kLanes = 8;
  float lane_max[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= values.size(); i += kLanes)
    for (std::size_t k = 0; k < kLanes; ++k)
      lane_max[k] = std::max(lane_max[k], std::abs(values[i + k]));
  for (; i < values.size(); ++i)
    lane_max[0] = std::max(lane_max[0], std::abs(values[i]));
  double max_abs = 0.0;
  for (const float m : lane_max) max_abs = std::max(max_abs, double{m});
  return format_for_max_abs(max_abs);
}

FixedPointFormat format_for_max_abs(double max_abs) noexcept {
  // Need int_bits such that 2^int_bits > max_abs (one guard bit keeps
  // accumulated rounding from saturating). frac_bits = 15 - int_bits.
  int int_bits = 0;
  while (int_bits < 15 &&
         std::ldexp(1.0, int_bits) <= max_abs * 2.0 + 1e-12) {
    ++int_bits;
  }
  return FixedPointFormat{.frac_bits = 15 - int_bits};
}

double quantization_snr_db(std::span<const float> values,
                           FixedPointFormat fmt) {
  double signal = 0.0;
  double noise = 0.0;
  for (float v : values) {
    const double q =
        Fixed16::from_raw(Fixed16::quantize_raw(v, fmt), fmt).to_double();
    signal += double{v} * double{v};
    noise += (v - q) * (v - q);
  }
  if (noise == 0.0) return 200.0;  // effectively lossless
  if (signal == 0.0) return 0.0;
  return 10.0 * std::log10(signal / noise);
}

}  // namespace sparsenn
