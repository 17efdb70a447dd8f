#include "nn/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace sparsenn {
namespace {

/// Rows per batched forward pass: a multiple of matvec_rows' eight-row
/// panel that keeps a paper-net trace to a few MB.
constexpr std::size_t kBlockRows = 64;

/// Runs `network.forward` over consecutive blocks of `dataset`'s rows
/// and calls fold(trace, i, row) for every sample i in dataset order,
/// where `row` is the sample's row in `trace`.
template <typename Fold>
void for_each_sample(const Network& network, const Dataset& dataset,
                     Fold&& fold) {
  for (std::size_t first = 0; first < dataset.size(); first += kBlockRows) {
    const std::size_t rows = std::min(kBlockRows, dataset.size() - first);
    Matrix block(rows, dataset.inputs.cols());
    std::copy_n(dataset.inputs.row(first).data(), block.size(),
                block.flat().data());
    const ForwardTrace trace = network.forward(std::move(block));
    for (std::size_t r = 0; r < rows; ++r) fold(trace, first + r, r);
  }
}

}  // namespace

EvalResult evaluate(const Network& network, const Dataset& dataset) {
  expects(dataset.size() > 0, "cannot evaluate on an empty dataset");
  const std::size_t hidden = network.num_hidden_layers();

  EvalResult out;
  out.predicted_sparsity.assign(hidden, 0.0);
  out.actual_sparsity.assign(hidden, 0.0);
  out.effective_sparsity.assign(hidden, 0.0);

  std::vector<RunningStats> predicted(hidden);
  std::vector<RunningStats> actual(hidden);
  std::vector<RunningStats> effective(hidden);
  std::size_t errors = 0;
  double loss = 0.0;

  for_each_sample(network, dataset, [&](const ForwardTrace& trace,
                                        std::size_t i, std::size_t r) {
    const std::span<const float> logits = trace.output().row(r);
    if (argmax(logits) != static_cast<std::size_t>(dataset.labels[i]))
      ++errors;
    loss += cross_entropy_loss(logits, dataset.labels[i]);

    for (std::size_t l = 0; l < hidden; ++l) {
      actual[l].add(sparsity_fraction(trace.unmasked[l].row(r)));
      effective[l].add(sparsity_fraction(trace.activations[l + 1].row(r)));
      if (!trace.masks[l].empty()) {
        // Mask stores 1 for "compute"; predicted sparsity is the zeros.
        predicted[l].add(sparsity_fraction(trace.masks[l].row(r)));
      }
    }
  });

  const auto n = static_cast<double>(dataset.size());
  out.test_error_rate = 100.0 * static_cast<double>(errors) / n;
  out.mean_loss = loss / n;
  for (std::size_t l = 0; l < hidden; ++l) {
    out.predicted_sparsity[l] = 100.0 * predicted[l].mean();
    out.actual_sparsity[l] = 100.0 * actual[l].mean();
    out.effective_sparsity[l] = 100.0 * effective[l].mean();
  }
  return out;
}

MaskAgreement mask_agreement(const Network& network, const Dataset& dataset,
                             std::size_t layer) {
  expects(layer < network.num_hidden_layers(), "layer out of range");
  expects(network.has_predictor(layer), "layer has no predictor");
  expects(dataset.size() > 0,
          "cannot measure mask agreement on an empty dataset");

  std::uint64_t false_kill = 0;
  std::uint64_t false_pass = 0;
  std::uint64_t total = 0;
  for_each_sample(network, dataset, [&](const ForwardTrace& trace,
                                        std::size_t, std::size_t r) {
    const std::span<const float> mask = trace.masks[layer].row(r);
    const std::span<const float> truth = trace.unmasked[layer].row(r);
    for (std::size_t j = 0; j < mask.size(); ++j) {
      const bool predicted_active = mask[j] > 0.0f;
      const bool truly_active = truth[j] > 0.0f;
      if (!predicted_active && truly_active) ++false_kill;
      if (predicted_active && !truly_active) ++false_pass;
      ++total;
    }
  });
  MaskAgreement out;
  const auto t = static_cast<double>(total);
  out.false_kill_percent = 100.0 * static_cast<double>(false_kill) / t;
  out.false_pass_percent = 100.0 * static_cast<double>(false_pass) / t;
  out.agreement_percent =
      100.0 - out.false_kill_percent - out.false_pass_percent;
  return out;
}

}  // namespace sparsenn
