#pragma once
// IDX (MNIST) file loading. When real dataset files exist (e.g. the
// user sets SPARSENN_DATA_DIR to a directory containing
// train-images-idx3-ubyte / train-labels-idx1-ubyte / t10k-...), the
// dataset factory prefers them over the procedural generator, so the
// repository reproduces the paper on the true benchmark when available.

#include <optional>
#include <string>

#include "data/dataset.hpp"

namespace sparsenn {

/// Parses a big-endian IDX3 image file into an N x 784 matrix in [0,1].
/// Returns nullopt if the file is missing; throws on a malformed file,
/// including a header that declares more images than the file holds
/// (checked before allocating), and on a path that cannot seek, such
/// as a pipe.
std::optional<Matrix> load_idx_images(const std::string& path);

/// Parses an IDX1 label file. Same error contract as load_idx_images.
std::optional<std::vector<int>> load_idx_labels(const std::string& path);

/// Loads {train, test} from `dir` with the canonical MNIST file names.
/// Returns nullopt when any of the four files is absent.
std::optional<DatasetSplit> load_mnist_directory(const std::string& dir);

/// Directory from SPARSENN_DATA_DIR, if set.
std::optional<std::string> configured_data_directory();

}  // namespace sparsenn
