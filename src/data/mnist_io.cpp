#include "data/mnist_io.hpp"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/stream.hpp"
#include "data/digits.hpp"

namespace sparsenn {
namespace {

std::uint32_t read_be32(std::istream& in) {
  unsigned char b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  ensures(in.good(), "truncated IDX header");
  return (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
         (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
}

}  // namespace

std::optional<Matrix> load_idx_images(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;

  const std::uint32_t magic = read_be32(in);
  ensures(magic == 0x0803, "not an IDX3 image file");
  const std::uint32_t count = read_be32(in);
  const std::uint32_t rows = read_be32(in);
  const std::uint32_t cols = read_be32(in);
  ensures(rows == kImageSide && cols == kImageSide,
          "expected 28x28 images");
  const std::optional<std::uint64_t> left = bytes_left(in);
  ensures(left.has_value(), "IDX stream cannot report its length");
  ensures(count <= *left / kImagePixels,
          "IDX header declares more images than the file holds");

  Matrix images(count, kImagePixels);
  std::vector<unsigned char> buffer(kImagePixels);
  for (std::uint32_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
    ensures(in.good(), "truncated IDX image payload");
    auto row = images.row(i);
    for (std::size_t p = 0; p < kImagePixels; ++p)
      row[p] = static_cast<float>(buffer[p]) / 255.0f;
  }
  return images;
}

std::optional<std::vector<int>> load_idx_labels(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;

  const std::uint32_t magic = read_be32(in);
  ensures(magic == 0x0801, "not an IDX1 label file");
  const std::uint32_t count = read_be32(in);
  const std::optional<std::uint64_t> left = bytes_left(in);
  ensures(left.has_value(), "IDX stream cannot report its length");
  ensures(count <= *left,
          "IDX header declares more labels than the file holds");

  std::vector<int> labels(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    char byte = 0;
    in.read(&byte, 1);
    ensures(in.good(), "truncated IDX label payload");
    labels[i] = static_cast<unsigned char>(byte);
    ensures(labels[i] < static_cast<int>(kNumClasses),
            "label out of range");
  }
  return labels;
}

std::optional<DatasetSplit> load_mnist_directory(const std::string& dir) {
  namespace fs = std::filesystem;
  const auto p = [&](const char* name) {
    return (fs::path(dir) / name).string();
  };
  auto train_images = load_idx_images(p("train-images-idx3-ubyte"));
  auto train_labels = load_idx_labels(p("train-labels-idx1-ubyte"));
  auto test_images = load_idx_images(p("t10k-images-idx3-ubyte"));
  auto test_labels = load_idx_labels(p("t10k-labels-idx1-ubyte"));
  if (!train_images || !train_labels || !test_images || !test_labels)
    return std::nullopt;

  ensures(train_images->rows() == train_labels->size(),
          "train image/label count mismatch");
  ensures(test_images->rows() == test_labels->size(),
          "test image/label count mismatch");

  DatasetSplit split;
  split.train = Dataset{std::move(*train_images), std::move(*train_labels)};
  split.test = Dataset{std::move(*test_images), std::move(*test_labels)};
  log_info("data", "loaded real MNIST from ", dir, " (",
           split.train.size(), " train / ", split.test.size(), " test)");
  return split;
}

std::optional<std::string> configured_data_directory() {
  // getenv suppression rationale: data loading happens on the main
  // thread before the serving tier spins up, and nothing calls setenv.
  if (const char* env = std::getenv("SPARSENN_DATA_DIR"))  // NOLINT(concurrency-mt-unsafe)
    return std::string{env};
  return std::nullopt;
}

}  // namespace sparsenn
