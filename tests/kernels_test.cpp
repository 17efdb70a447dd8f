// Property tests of the vectorised kernel layer (common/kernels.hpp):
// every compiled-in SIMD specialisation must match the scalar
// reference bit-for-bit across widths, alignments, ragged tails and
// int16 saturation extremes (-32768 operands exercise the widening /
// madd edge cases the implementations guard). The dot and paired-axpy
// helpers behind predict_bits and sparse_matvec are covered through
// those two entries.

#include "common/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

namespace sparsenn {
namespace {

/// All tables this build can run on this machine, scalar first.
std::vector<const KernelTable*> available_tables() {
  std::vector<const KernelTable*> tables{&scalar_kernels()};
  for (const SimdIsa isa :
       {SimdIsa::kSse42, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    if (const KernelTable* t = kernels_for(isa)) tables.push_back(t);
  }
  return tables;
}

/// int16 values biased towards the saturation extremes so every run
/// hits -32768/32767 products and sums.
std::int16_t random_extreme_i16(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 9);
  switch (kind(rng)) {
    case 0: return -32768;
    case 1: return 32767;
    case 2: return 0;
    default: {
      std::uniform_int_distribution<int> val(-32768, 32767);
      return static_cast<std::int16_t>(val(rng));
    }
  }
}

std::vector<std::int16_t> random_i16(std::mt19937& rng, std::size_t n,
                                     double zero_prob) {
  std::bernoulli_distribution zero(zero_prob);
  std::vector<std::int16_t> out(n);
  for (auto& v : out) v = zero(rng) ? 0 : random_extreme_i16(rng);
  return out;
}

/// Widths that cover every lane-count boundary plus ragged tails.
const std::size_t kWidths[] = {0,  1,  2,  3,  7,  8,  9,  15, 16,
                               17, 31, 32, 33, 63, 64, 100, 255, 784};

TEST(KernelsTest, DispatchReportsAnIsaThisHostSupports) {
  const KernelTable& active = kernels();
  EXPECT_NE(kernels_for(active.isa), nullptr);
  EXPECT_EQ(active.isa, active_simd_isa());
}

TEST(KernelsTest, ForceScalarOverrideSwitchesEveryEntry) {
  force_scalar_kernels(true);
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
  EXPECT_EQ(kernels().sparse_matvec_i16_i64,
            scalar_kernels().sparse_matvec_i16_i64);
  force_scalar_kernels(false);
  // With the override lifted (and no SPARSENN_FORCE_SCALAR in the
  // environment), dispatch returns to the detected best ISA.
  const char* env = std::getenv("SPARSENN_FORCE_SCALAR");
  const bool env_forced =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  EXPECT_EQ(active_simd_isa(),
            env_forced ? SimdIsa::kScalar : detect_simd_isa());
}

TEST(KernelsTest, AxpyMatchesScalar) {
  std::mt19937 rng(303);
  const auto& scalar = scalar_kernels();
  for (const KernelTable* t : available_tables()) {
    for (const std::size_t n : kWidths) {
      for (int rep = 0; rep < 8; ++rep) {
        const auto w = random_i16(rng, n, 0.2);
        // rep 0 pins the most negative scalar.
        const std::int16_t a =
            rep == 0 ? std::int16_t{-32768} : random_extreme_i16(rng);
        std::vector<std::int64_t> acc(n);
        std::uniform_int_distribution<std::int64_t> init(-1'000'000,
                                                         1'000'000);
        for (auto& v : acc) v = init(rng);
        std::vector<std::int64_t> got = acc;
        t->axpy_i16_i64(got.data(), w.data(), a, n);
        scalar.axpy_i16_i64(acc.data(), w.data(), a, n);
        EXPECT_EQ(got, acc) << to_string(t->isa) << " n=" << n;
      }
    }
  }
}

TEST(KernelsTest, SparseMatvecMatchesScalar) {
  std::mt19937 rng(404);
  const auto& scalar = scalar_kernels();
  for (const KernelTable* t : available_tables()) {
    for (const std::size_t m : {1u, 7u, 15u, 16u, 33u, 256u}) {
      for (const std::size_t n : {1u, 5u, 64u}) {
        auto cols = random_i16(rng, n * m, 0.2);
        auto act = random_i16(rng, n, 0.4);
        if (n >= 2) {
          // The paired sweep's madd guard: the first two nonzero
          // inputs are both -32768, over two columns of -32768 words,
          // so both products of every pair are (-32768)².
          act[0] = act[1] = -32768;
          std::fill_n(cols.begin(), 2 * m, std::int16_t{-32768});
        }
        std::vector<std::uint32_t> idx;
        for (std::size_t c = 0; c < n; ++c)
          if (act[c] != 0) idx.push_back(static_cast<std::uint32_t>(c));
        std::vector<std::int64_t> got(m, 0), expected(m, 0);
        t->sparse_matvec_i16_i64(got.data(), cols.data(), m, idx.data(),
                                 idx.size(), act.data());
        scalar.sparse_matvec_i16_i64(expected.data(), cols.data(), m,
                                     idx.data(), idx.size(), act.data());
        EXPECT_EQ(got, expected)
            << to_string(t->isa) << " m=" << m << " n=" << n;
      }
    }
  }
}

TEST(KernelsTest, NonzeroScanMatchesScalarAtEveryDensity) {
  std::mt19937 rng(505);
  const auto& scalar = scalar_kernels();
  for (const KernelTable* t : available_tables()) {
    for (const std::size_t n : kWidths) {
      for (const double density : {0.0, 0.1, 0.5, 1.0}) {
        const auto v = random_i16(rng, n, 1.0 - density);
        std::vector<std::uint32_t> got(n + 1, 999), expected(n + 1, 999);
        const std::size_t got_count =
            t->nonzero_scan_i16(v.data(), n, got.data());
        const std::size_t expected_count =
            scalar.nonzero_scan_i16(v.data(), n, expected.data());
        EXPECT_EQ(got_count, expected_count)
            << to_string(t->isa) << " n=" << n;
        for (std::size_t i = 0; i < expected_count; ++i)
          EXPECT_EQ(got[i], expected[i]) << to_string(t->isa);
      }
    }
  }
}

TEST(KernelsTest, PredictBitsMatchesScalar) {
  // Each row's bit is an exact row·s dot product against the
  // threshold, so ranks sweep every lane-count boundary and ragged
  // tail up to the paper's 784-wide input, from misaligned bases, and
  // end on the all -32768 extreme. Rows lie a stride wider than the
  // rank apart, as in a PE's U view, with nonzero words in the gaps: a
  // kernel that stepped by the rank would read them.
  std::mt19937 rng(606);
  const auto& scalar = scalar_kernels();
  std::uniform_int_distribution<std::size_t> off(0, 3);
  std::uniform_int_distribution<std::size_t> gap(1, 19);
  for (const KernelTable* t : available_tables()) {
    for (const std::size_t rows : {0u, 1u, 4u, 13u, 64u}) {
      for (const std::size_t rank : kWidths) {
        const std::size_t ou = off(rng), os = off(rng);
        const std::size_t stride = rank + gap(rng);
        const auto u = random_i16(rng, rows * stride + ou, 0.2);
        const auto s = random_i16(rng, rank + os, 0.3);
        std::uniform_int_distribution<std::int64_t> thr(-5'000'000,
                                                        5'000'000);
        for (const std::int64_t threshold : {std::int64_t{0}, thr(rng)}) {
          std::vector<std::uint8_t> got(rows + 1, 7), expected(rows + 1, 7);
          t->predict_bits_i16(u.data() + ou, stride, rows, rank,
                              s.data() + os, threshold, got.data());
          scalar.predict_bits_i16(u.data() + ou, stride, rows, rank,
                                  s.data() + os, threshold,
                                  expected.data());
          EXPECT_EQ(got, expected)
              << to_string(t->isa) << " rows=" << rows
              << " rank=" << rank << " stride=" << stride;
          // The scalar reference itself against the formula.
          for (std::size_t r = 0; r < rows; ++r) {
            std::int64_t dot = 0;
            for (std::size_t k = 0; k < rank; ++k)
              dot += std::int64_t{u[ou + r * stride + k]} *
                     std::int64_t{s[os + k]};
            ASSERT_EQ(expected[r], dot > threshold ? 1 : 0)
                << "rows=" << rows << " rank=" << rank << " row " << r;
          }
        }
      }
    }

    // -32768 · -32768 accumulated 784 times overflows i32 (the madd
    // trap) but fits i64 exactly: the bit flips exactly at the sum.
    const std::vector<std::int16_t> lo(784, -32768);
    const std::int64_t sum = 784LL * (32768LL * 32768LL);
    std::uint8_t bits[2] = {7, 7};
    t->predict_bits_i16(lo.data(), lo.size(), 1, lo.size(), lo.data(),
                        sum - 1, &bits[0]);
    t->predict_bits_i16(lo.data(), lo.size(), 1, lo.size(), lo.data(), sum,
                        &bits[1]);
    EXPECT_EQ(bits[0], 1) << to_string(t->isa);
    EXPECT_EQ(bits[1], 0) << to_string(t->isa);
  }
}

TEST(KernelsTest, QuantizeMatchesScalarIncludingTiesAndSaturation) {
  std::mt19937 rng(808);
  const auto& scalar = scalar_kernels();
  for (const KernelTable* t : available_tables()) {
    for (const std::size_t n : kWidths) {
      for (const int frac_bits : {3, 9, 15}) {
        const float scale = std::ldexp(1.0f, frac_bits);
        std::vector<float> in(n);
        std::uniform_real_distribution<float> val(-80.0f, 80.0f);
        std::uniform_int_distribution<int> kind(0, 9);
        std::uniform_int_distribution<int> half(-200, 200);
        for (auto& v : in) {
          const int k = kind(rng);
          if (k == 0) {
            // Exact .5 ties in scaled units — the rounding-mode edge.
            v = (static_cast<float>(half(rng)) + 0.5f) / scale;
          } else if (k == 1) {
            v = 1.0e6f;  // saturates high
          } else if (k == 2) {
            v = -1.0e6f;  // saturates low
          } else {
            v = val(rng);
          }
        }
        std::vector<std::int16_t> got(n, 42), expected(n, 42);
        t->quantize_f32_i16(in.data(), n, scale, got.data());
        scalar.quantize_f32_i16(in.data(), n, scale, expected.data());
        EXPECT_EQ(got, expected)
            << to_string(t->isa) << " n=" << n << " frac=" << frac_bits;
      }
    }
  }
}

}  // namespace
}  // namespace sparsenn
