#pragma once
// Evaluation metrics reported in the paper: test error rate (TER) and
// the per-hidden-layer predicted output sparsity ρ(l).

#include <vector>

#include "data/dataset.hpp"
#include "nn/network.hpp"

namespace sparsenn {

/// Results of evaluating a network on a dataset split.
struct EvalResult {
  double test_error_rate = 0.0;  ///< percent, 0..100
  /// Predicted output sparsity per hidden layer, percent: the fraction
  /// of output activations the predictor marks zero (masks them off).
  std::vector<double> predicted_sparsity;
  /// Actual post-ReLU output sparsity per hidden layer (before masking),
  /// percent. For NO-UV networks this is the intrinsic sparsity.
  std::vector<double> actual_sparsity;
  /// Effective sparsity of what flows to the next layer, percent (mask
  /// AND ReLU zero); the quantity the accelerator's input-skipping sees.
  std::vector<double> effective_sparsity;
  double mean_loss = 0.0;
};

/// Full evaluation pass; uses predictors when present.
EvalResult evaluate(const Network& network, const Dataset& dataset);

/// Fraction (percent) of prediction mask disagreements against the true
/// post-ReLU zero pattern, split by error type. Used to study predictor
/// quality beyond what the paper reports.
struct MaskAgreement {
  double false_kill_percent = 0.0;   ///< truly nonzero but masked off
  double false_pass_percent = 0.0;   ///< truly zero but let through
  double agreement_percent = 100.0;
};
MaskAgreement mask_agreement(const Network& network, const Dataset& dataset,
                             std::size_t layer);

}  // namespace sparsenn
