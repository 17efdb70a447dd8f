#pragma once
// In-memory labelled dataset with the three benchmark variants the paper
// evaluates on (MNIST-BASIC, ROT, BG-RAND from Larochelle et al. 2007).

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace sparsenn {

/// The paper's three benchmarks.
enum class DatasetVariant { kBasic, kRot, kBgRand };

std::string to_string(DatasetVariant variant);

/// All variants in the order the paper's figures list them.
inline constexpr DatasetVariant kAllVariants[] = {
    DatasetVariant::kBasic, DatasetVariant::kBgRand, DatasetVariant::kRot};

/// A labelled split: `inputs` is N x 784 row-major, labels in [0, 10).
struct Dataset {
  Matrix inputs;
  std::vector<int> labels;

  std::size_t size() const noexcept { return labels.size(); }
  std::span<const float> image(std::size_t i) const {
    return inputs.row(i);
  }

  /// Mean fraction of zero pixels — the input sparsity the accelerator
  /// exploits.
  double input_sparsity() const;
};

/// Train + test pair.
struct DatasetSplit {
  Dataset train;
  Dataset test;
  DatasetVariant variant = DatasetVariant::kBasic;
};

/// Generation parameters.
struct DatasetOptions {
  std::size_t train_size = 4000;
  std::size_t test_size = 1000;
  std::uint64_t seed = 7;
};

/// Builds the requested variant. Uses real IDX files when
/// SPARSENN_DATA_DIR points at them (see mnist_io.hpp), otherwise the
/// procedural generator (see digits.hpp) with the variant's perturbation.
DatasetSplit make_dataset(DatasetVariant variant,
                          const DatasetOptions& options = {});

/// Yields minibatch index ranges over a shuffled epoch.
class BatchIterator {
 public:
  BatchIterator(std::size_t dataset_size, std::size_t batch_size, Rng& rng);

  /// Next batch of sample indices; empty when the epoch is exhausted.
  std::span<const std::size_t> next();

 private:
  std::vector<std::size_t> order_;
  std::size_t batch_size_;
  std::size_t cursor_ = 0;
};

}  // namespace sparsenn
