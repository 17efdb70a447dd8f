#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "data/digits.hpp"
#include "data/mnist_io.hpp"
#include "data/variations.hpp"

namespace sparsenn {

std::string to_string(DatasetVariant variant) {
  switch (variant) {
    case DatasetVariant::kBasic: return "basic";
    case DatasetVariant::kRot: return "rot";
    case DatasetVariant::kBgRand: return "bg_rand";
  }
  return "unknown";
}

double Dataset::input_sparsity() const {
  RunningStats stats;
  for (std::size_t i = 0; i < size(); ++i)
    stats.add(sparsity_fraction(image(i)));
  return stats.mean();
}

namespace {

Vector apply_variant(DatasetVariant variant, Vector base, Rng& rng) {
  switch (variant) {
    case DatasetVariant::kBasic:
      return base;
    case DatasetVariant::kRot:
      return rotate_image(base, random_rotation_angle(rng));
    case DatasetVariant::kBgRand:
      return add_random_background(base, rng);
  }
  return base;
}

Dataset generate_split(DatasetVariant variant, std::size_t count,
                       Rng& rng) {
  Dataset out{Matrix(count, kImagePixels), std::vector<int>(count)};
  for (std::size_t i = 0; i < count; ++i) {
    const int label = static_cast<int>(rng.uniform_index(kNumClasses));
    Vector img = make_digit(label, rng);
    img = apply_variant(variant, std::move(img), rng);
    std::copy(img.begin(), img.end(), out.inputs.row(i).begin());
    out.labels[i] = label;
  }
  return out;
}

Dataset perturb_real_split(DatasetVariant variant, const Dataset& real,
                           std::size_t count, Rng& rng) {
  const std::size_t n = std::min(count, real.size());
  Dataset out{Matrix(n, kImagePixels), std::vector<int>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    Vector img(real.image(i).begin(), real.image(i).end());
    img = apply_variant(variant, std::move(img), rng);
    std::copy(img.begin(), img.end(), out.inputs.row(i).begin());
    out.labels[i] = real.labels[i];
  }
  return out;
}

}  // namespace

DatasetSplit make_dataset(DatasetVariant variant,
                          const DatasetOptions& options) {
  expects(options.train_size > 0 && options.test_size > 0,
          "dataset sizes must be positive");
  Rng rng{options.seed ^ (static_cast<std::uint64_t>(variant) << 32)};

  if (const auto dir = configured_data_directory()) {
    if (auto real = load_mnist_directory(*dir)) {
      DatasetSplit split;
      split.variant = variant;
      split.train =
          perturb_real_split(variant, real->train, options.train_size, rng);
      split.test =
          perturb_real_split(variant, real->test, options.test_size, rng);
      return split;
    }
  }

  DatasetSplit split;
  split.variant = variant;
  split.train = generate_split(variant, options.train_size, rng);
  split.test = generate_split(variant, options.test_size, rng);
  return split;
}

BatchIterator::BatchIterator(std::size_t dataset_size,
                             std::size_t batch_size, Rng& rng)
    : order_(dataset_size), batch_size_(batch_size) {
  expects(batch_size > 0, "batch size must be positive");
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  rng.shuffle(order_);
}

std::span<const std::size_t> BatchIterator::next() {
  if (cursor_ >= order_.size()) return {};
  const std::size_t take = std::min(batch_size_, order_.size() - cursor_);
  const std::span<const std::size_t> batch{order_.data() + cursor_, take};
  cursor_ += take;
  return batch;
}

}  // namespace sparsenn
