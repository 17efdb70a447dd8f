// Tests for src/data: the procedural digit generator, the Larochelle
// variations (rotation, random background), dataset factories, and the
// batch iterator.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "common/stats.hpp"
#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/variations.hpp"

namespace sparsenn {
namespace {

TEST(Digits, PixelsInUnitRange) {
  Rng rng{1};
  for (int label = 0; label < 10; ++label) {
    const Vector img = make_digit(label, rng);
    ASSERT_EQ(img.size(), kImagePixels);
    for (float px : img) {
      EXPECT_GE(px, 0.0f);
      EXPECT_LE(px, 1.0f);
    }
  }
}

TEST(Digits, StrokesProduceInk) {
  Rng rng{2};
  for (int label = 0; label < 10; ++label) {
    const Vector img = make_digit(label, rng);
    double ink = 0.0;
    for (float px : img) ink += px;
    EXPECT_GT(ink, 10.0) << "digit " << label << " rendered empty";
  }
}

TEST(Digits, BackgroundDominates) {
  // Hand-written digits are mostly background: the input sparsity the
  // accelerator exploits.
  Rng rng{3};
  RunningStats sparsity;
  for (int i = 0; i < 50; ++i) {
    const Vector img = make_digit(i % 10, rng);
    sparsity.add(sparsity_fraction(img));
  }
  EXPECT_GT(sparsity.mean(), 0.6);
  EXPECT_LT(sparsity.mean(), 0.95);
}

TEST(Digits, DeterministicGivenJitter) {
  const GlyphJitter jitter{};  // default = no randomness
  Vector a(kImagePixels);
  Vector b(kImagePixels);
  render_digit(7, jitter, a);
  render_digit(7, jitter, b);
  EXPECT_EQ(a, b);
}

TEST(Digits, JitterChangesRendering) {
  Rng rng{4};
  Vector a(kImagePixels);
  Vector b(kImagePixels);
  render_digit(5, GlyphJitter::random(rng), a);
  render_digit(5, GlyphJitter::random(rng), b);
  EXPECT_NE(a, b);
}

TEST(Digits, ClassesAreVisuallyDistinct) {
  // Mean L2 distance between canonical renders of different classes is
  // far above the distance between same-class jittered renders.
  const GlyphJitter canonical{};
  std::vector<Vector> renders(10, Vector(kImagePixels));
  for (int d = 0; d < 10; ++d) render_digit(d, canonical, renders[d]);

  double min_cross = 1e18;
  for (int a = 0; a < 10; ++a)
    for (int b = a + 1; b < 10; ++b) {
      double d2 = 0.0;
      for (std::size_t i = 0; i < kImagePixels; ++i)
        d2 += std::pow(double{renders[a][i]} - double{renders[b][i]}, 2);
      min_cross = std::min(min_cross, std::sqrt(d2));
    }
  EXPECT_GT(min_cross, 1.0);
}

TEST(Digits, LabelValidation) {
  Rng rng{5};
  EXPECT_THROW(make_digit(-1, rng), std::invalid_argument);
  EXPECT_THROW(make_digit(10, rng), std::invalid_argument);
  EXPECT_FALSE(digit_skeleton(3).empty());
}

TEST(Variations, RotationByZeroIsNearIdentity) {
  Rng rng{6};
  const Vector img = make_digit(4, rng);
  const Vector rot = rotate_image(img, 0.0f);
  double err = 0.0;
  for (std::size_t i = 0; i < kImagePixels; ++i)
    err += std::abs(img[i] - rot[i]);
  EXPECT_LT(err / kImagePixels, 0.01);
}

TEST(Variations, RotationPreservesInkApproximately) {
  Rng rng{7};
  const Vector img = make_digit(3, rng);
  double ink = 0.0;
  for (float px : img) ink += px;
  const Vector rot =
      rotate_image(img, std::numbers::pi_v<float> / 4.0f);
  double rot_ink = 0.0;
  for (float px : rot) rot_ink += px;
  EXPECT_NEAR(rot_ink, ink, 0.25 * ink);
}

TEST(Variations, FullTurnIsNearIdentity) {
  Rng rng{8};
  const Vector img = make_digit(8, rng);
  const Vector back =
      rotate_image(img, 2.0f * std::numbers::pi_v<float>);
  double err = 0.0;
  for (std::size_t i = 0; i < kImagePixels; ++i)
    err += std::abs(img[i] - back[i]);
  EXPECT_LT(err / kImagePixels, 0.02);
}

TEST(Variations, RandomBackgroundDestroysSparsity) {
  Rng rng{9};
  const Vector img = make_digit(2, rng);
  EXPECT_GT(sparsity_fraction(img), 0.5);
  const Vector noisy = add_random_background(img, rng);
  EXPECT_LT(sparsity_fraction(noisy), 0.05);
  // Digit ink is preserved (max compositing).
  for (std::size_t i = 0; i < kImagePixels; ++i)
    EXPECT_GE(noisy[i], img[i]);
}

TEST(Variations, RotationAngleRange) {
  Rng rng{10};
  for (int i = 0; i < 100; ++i) {
    const float a = random_rotation_angle(rng);
    EXPECT_GE(a, 0.0f);
    EXPECT_LT(a, 2.0f * std::numbers::pi_v<float> + 1e-5f);
  }
}

// ---- dataset factory ----

class DatasetVariantSweep
    : public ::testing::TestWithParam<DatasetVariant> {};

TEST_P(DatasetVariantSweep, FactoryProducesRequestedSizes) {
  DatasetOptions options;
  options.train_size = 120;
  options.test_size = 40;
  const DatasetSplit split = make_dataset(GetParam(), options);
  EXPECT_EQ(split.train.size(), 120u);
  EXPECT_EQ(split.test.size(), 40u);
  EXPECT_EQ(split.train.inputs.cols(), kImagePixels);
  EXPECT_EQ(split.variant, GetParam());
  for (int label : split.train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

TEST_P(DatasetVariantSweep, DeterministicForSeed) {
  DatasetOptions options;
  options.train_size = 30;
  options.test_size = 10;
  options.seed = 77;
  const DatasetSplit a = make_dataset(GetParam(), options);
  const DatasetSplit b = make_dataset(GetParam(), options);
  EXPECT_EQ(a.train.inputs, b.train.inputs);
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST_P(DatasetVariantSweep, AllClassesPresent) {
  DatasetOptions options;
  options.train_size = 400;
  options.test_size = 10;
  const DatasetSplit split = make_dataset(GetParam(), options);
  std::set<int> classes(split.train.labels.begin(),
                        split.train.labels.end());
  EXPECT_EQ(classes.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Variants, DatasetVariantSweep,
                         ::testing::Values(DatasetVariant::kBasic,
                                           DatasetVariant::kRot,
                                           DatasetVariant::kBgRand));

TEST(Dataset, SparsityOrderingMatchesBenchmarks) {
  DatasetOptions options;
  options.train_size = 200;
  options.test_size = 10;
  const double basic =
      make_dataset(DatasetVariant::kBasic, options).train.input_sparsity();
  const double rot =
      make_dataset(DatasetVariant::kRot, options).train.input_sparsity();
  const double bg = make_dataset(DatasetVariant::kBgRand, options)
                        .train.input_sparsity();
  EXPECT_GT(basic, 0.6);   // sparse images
  EXPECT_GT(rot, 0.5);     // rotation keeps background
  EXPECT_LT(bg, 0.05);     // noise fills the background
}

TEST(Dataset, VariantNames) {
  EXPECT_EQ(to_string(DatasetVariant::kBasic), "basic");
  EXPECT_EQ(to_string(DatasetVariant::kRot), "rot");
  EXPECT_EQ(to_string(DatasetVariant::kBgRand), "bg_rand");
}

TEST(BatchIterator, CoversEveryIndexOnce) {
  Rng rng{11};
  BatchIterator it(103, 10, rng);
  std::set<std::size_t> seen;
  std::size_t batches = 0;
  for (auto b = it.next(); !b.empty(); b = it.next()) {
    ++batches;
    EXPECT_LE(b.size(), 10u);
    for (std::size_t idx : b) {
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index";
      EXPECT_LT(idx, 103u);
    }
  }
  EXPECT_EQ(seen.size(), 103u);
  EXPECT_EQ(batches, 11u);  // 10 full + 1 ragged
}

}  // namespace
}  // namespace sparsenn
