// Property sweeps of the fixed-point layer across every Q format the
// datapath can select: round-trip error bounds, saturation behaviour,
// and rescaling consistency — the numeric
// foundations the bit-exact simulator equality rests on.

#include <gtest/gtest.h>

#include <cmath>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "nn/quantized.hpp"

namespace sparsenn {
namespace {

class FormatSweep : public ::testing::TestWithParam<int> {
 protected:
  FixedPointFormat fmt() const { return {.frac_bits = GetParam()}; }
};

TEST_P(FormatSweep, RoundTripWithinHalfResolution) {
  const FixedPointFormat f = fmt();
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const double lo = f.min_value() * 0.95;
  const double hi = f.max_value() * 0.95;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(lo, hi);
    const Fixed16 q(x, f);
    EXPECT_NEAR(q.to_double(), x, f.resolution() / 2.0 + 1e-12);
  }
}

TEST_P(FormatSweep, SaturationIsClampNotWrap) {
  const FixedPointFormat f = fmt();
  const Fixed16 over(f.max_value() * 4.0, f);
  const Fixed16 under(f.min_value() * 4.0, f);
  EXPECT_EQ(over.raw(), 32767);
  EXPECT_EQ(under.raw(), -32768);
  // Monotonicity across the saturation knee.
  const Fixed16 near_top(f.max_value() * 0.99, f);
  EXPECT_LE(near_top.raw(), over.raw());
}

TEST_P(FormatSweep, RescaleIdentityWhenFormatsMatch) {
  const int frac = GetParam();
  Rng rng{23u + static_cast<std::uint64_t>(frac)};
  for (int i = 0; i < 200; ++i) {
    const auto value = static_cast<std::int16_t>(
        static_cast<std::int64_t>(rng.uniform_index(65536)) - 32768);
    EXPECT_EQ(rescale_to_i16(value, frac, frac), value);
  }
}

TEST_P(FormatSweep, RescaleShiftsAreInverseWithinRounding) {
  const int frac = GetParam();
  if (frac + 4 > 14) return;  // avoid overflowing the up-shift
  Rng rng{29u + static_cast<std::uint64_t>(frac)};
  for (int i = 0; i < 200; ++i) {
    const auto value = static_cast<std::int16_t>(
        static_cast<std::int64_t>(rng.uniform_index(2048)) - 1024);
    // Up-shift by 4 fractional bits then down-shift back: exact.
    const std::int16_t up = rescale_to_i16(value, frac, frac + 4);
    const std::int16_t back = rescale_to_i16(up, frac + 4, frac);
    EXPECT_EQ(back, value);
  }
}

TEST_P(FormatSweep, QuantizationSnrScalesWithFracBits) {
  const FixedPointFormat f = fmt();
  Rng rng{31};
  std::vector<float> values(2048);
  const auto mag = static_cast<float>(
      std::min(1.0, f.max_value() / 8.0));
  for (float& v : values)
    v = static_cast<float>(rng.uniform(-mag, mag));
  // ~6 dB per bit of effective resolution; require a loose floor.
  const double snr = quantization_snr_db(values, f);
  EXPECT_GT(snr, 6.0 * (GetParam() - 8));
}

INSTANTIATE_TEST_SUITE_P(FracBits, FormatSweep,
                         ::testing::Values(6, 8, 9, 10, 12, 14),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "q" + std::to_string(info.param);
                         });

TEST(FormatChoice, PicksTightestCoveringFormat) {
  // For each magnitude scale, choose_format must cover max|v| while not
  // wasting more than one integer bit.
  Rng rng{37};
  for (const double scale : {0.1, 0.5, 1.0, 4.0, 30.0, 200.0}) {
    std::vector<float> values(256);
    for (float& v : values)
      v = static_cast<float>(rng.uniform(-scale, scale));
    const FixedPointFormat f = choose_format(values);
    float max_abs = 0.0f;
    for (float v : values) max_abs = std::max(max_abs, std::abs(v));
    EXPECT_GE(f.max_value(), max_abs) << "scale " << scale;
    // No more than two wasted doublings (one guard bit + rounding up);
    // the format floor is Q0.15 whose range is ±1 regardless of scale.
    EXPECT_LE(f.max_value(), std::max(4.0f * max_abs, 1.0f))
        << "scale " << scale;
  }
}

}  // namespace
}  // namespace sparsenn
