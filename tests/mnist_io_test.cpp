// Tests for src/data/mnist_io: the real IDX (MNIST) ingestion path.
//
// The loader used to be CI-dark — it only ran when a user pointed
// SPARSENN_DATA_DIR at a full MNIST download. tests/data/idx-tiny is a
// checked-in 4-image fixture in the exact IDX format (big-endian
// headers, canonical file names), so header parsing, endianness,
// payload scaling and the SPARSENN_DATA_DIR plumbing through
// make_dataset() are exercised on every run.
//
// Fixture contents (generated once, committed as binary):
//   train images: pixel(i, p) = (i*40 + p) % 256, labels {3, 1, 4, 9}
//   t10k  images: pixel(i, p) = (100 + i*40 + p) % 256, labels {2, 7, 0, 5}

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "data/dataset.hpp"
#include "data/mnist_io.hpp"

namespace sparsenn {
namespace {

std::string fixture_dir() {
  return std::string(SPARSENN_TEST_DATA_DIR) + "/idx-tiny";
}

float expected_train_pixel(std::size_t image, std::size_t p) {
  return static_cast<float>((image * 40 + p) % 256) / 255.0f;
}

TEST(MnistIo, LoadIdxImagesParsesBigEndianHeaderAndScalesPixels) {
  const auto images =
      load_idx_images(fixture_dir() + "/train-images-idx3-ubyte");
  ASSERT_TRUE(images.has_value());
  // The counts are stored big-endian (00 00 00 04, 00 00 00 1C); a
  // little-endian misparse would blow up the dimension checks long
  // before these asserts.
  ASSERT_EQ(images->rows(), 4u);
  ASSERT_EQ(images->cols(), 784u);
  for (std::size_t i = 0; i < 4; ++i)
    for (const std::size_t p : {std::size_t{0}, std::size_t{255},
                                std::size_t{256}, std::size_t{783}})
      EXPECT_FLOAT_EQ(images->row(i)[p], expected_train_pixel(i, p))
          << "image " << i << " pixel " << p;
}

TEST(MnistIo, LoadIdxLabelsParsesPayload) {
  const auto labels =
      load_idx_labels(fixture_dir() + "/train-labels-idx1-ubyte");
  ASSERT_TRUE(labels.has_value());
  EXPECT_EQ(*labels, (std::vector<int>{3, 1, 4, 9}));
}

TEST(MnistIo, MissingFileIsNulloptNotAnError) {
  EXPECT_FALSE(load_idx_images(fixture_dir() + "/no-such-file"));
  EXPECT_FALSE(load_idx_labels(fixture_dir() + "/no-such-file"));
  EXPECT_FALSE(load_mnist_directory(fixture_dir() + "/no-such-dir"));
}

TEST(MnistIo, WrongMagicThrows) {
  // A label file is a well-formed IDX1 stream — feeding it to the
  // image loader must trip the magic check, not misinterpret bytes.
  EXPECT_THROW(
      (void)load_idx_images(fixture_dir() + "/train-labels-idx1-ubyte"),
      InvariantError);
  EXPECT_THROW(
      (void)load_idx_labels(fixture_dir() + "/train-images-idx3-ubyte"),
      InvariantError);
}

TEST(MnistIo, TruncatedPayloadThrows) {
  // Copy the fixture, cut it mid-payload; the loader must throw on the
  // short read instead of returning a half-filled matrix.
  std::ifstream src(fixture_dir() + "/train-images-idx3-ubyte",
                    std::ios::binary);
  ASSERT_TRUE(src.is_open());
  std::vector<char> bytes((std::istreambuf_iterator<char>(src)),
                          std::istreambuf_iterator<char>());
  const std::string path = "mnist_io_test_truncated.bin";
  {
    std::ofstream dst(path, std::ios::binary);
    dst.write(bytes.data(),
              static_cast<std::streamsize>(16 + 784 + 100));  // 1.1 images
  }
  EXPECT_THROW((void)load_idx_images(path), InvariantError);
  std::remove(path.c_str());
}

TEST(MnistIo, OversizedCountThrowsBeforeAllocating) {
  // A bare 16-byte IDX3 header declaring 2^32 - 1 images of 28x28
  // (12.5 TiB as floats): a bad file, not std::bad_alloc.
  const std::string path = "mnist_io_test_oversized.bin";
  {
    const unsigned char header[16] = {0, 0, 8, 3,    0xff, 0xff, 0xff, 0xff,
                                      0, 0, 0, 28,   0,    0,    0,    28};
    std::ofstream dst(path, std::ios::binary);
    dst.write(reinterpret_cast<const char*>(header), sizeof header);
  }
  EXPECT_THROW((void)load_idx_images(path), InvariantError);
  std::remove(path.c_str());
}

TEST(MnistIo, LoadMnistDirectoryAssemblesTheSplit) {
  const auto split = load_mnist_directory(fixture_dir());
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train.size(), 4u);
  EXPECT_EQ(split->test.size(), 4u);
  EXPECT_EQ(split->train.labels, (std::vector<int>{3, 1, 4, 9}));
  EXPECT_EQ(split->test.labels, (std::vector<int>{2, 7, 0, 5}));
  EXPECT_FLOAT_EQ(split->test.image(2)[0],
                  static_cast<float>((100 + 2 * 40) % 256) / 255.0f);
}

TEST(MnistIo, MakeDatasetPrefersConfiguredDataDirectory) {
  // The full ingestion path the ROADMAP called CI-dark: point
  // SPARSENN_DATA_DIR at the fixture and go through the public
  // dataset factory. kBasic applies no perturbation, so the loaded
  // pixels must be exactly the fixture bytes / 255.
  ASSERT_EQ(setenv("SPARSENN_DATA_DIR", fixture_dir().c_str(), 1), 0);
  ASSERT_TRUE(configured_data_directory().has_value());

  DatasetOptions options;
  options.train_size = 100;  // more than the fixture has → clamps to 4
  options.test_size = 2;     // fewer → takes the first 2
  const DatasetSplit split = make_dataset(DatasetVariant::kBasic, options);
  ASSERT_EQ(unsetenv("SPARSENN_DATA_DIR"), 0);

  EXPECT_EQ(split.train.size(), 4u);
  EXPECT_EQ(split.test.size(), 2u);
  EXPECT_EQ(split.train.labels, (std::vector<int>{3, 1, 4, 9}));
  EXPECT_EQ(split.test.labels, (std::vector<int>{2, 7}));
  for (const std::size_t p : {std::size_t{0}, std::size_t{511}})
    EXPECT_FLOAT_EQ(split.train.image(1)[p], expected_train_pixel(1, p));
}

TEST(MnistIo, ConfiguredDirectoryUnsetIsNullopt) {
  ASSERT_EQ(unsetenv("SPARSENN_DATA_DIR"), 0);
  EXPECT_FALSE(configured_data_directory().has_value());
}

}  // namespace
}  // namespace sparsenn
