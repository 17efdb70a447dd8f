#pragma once
// Shared helpers for the table/figure benches: reduced-vs-full scaling
// (SPARSENN_FULL=1 runs the paper-scale configuration) and common
// option blocks so every bench trains comparable networks.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/trainer.hpp"

namespace sparsenn::bench {

/// Scale of one bench run.
struct Scale {
  std::size_t hidden = 512;      ///< hidden width (paper: 1000)
  std::size_t train_size = 3000;
  std::size_t test_size = 600;
  std::size_t epochs = 4;
  std::size_t sim_samples = 3;   ///< inferences per hardware point
  bool full = false;
};

/// True when SPARSENN_FULL is set to 1, true, yes or on (any case):
/// benches then run the full paper-scale configuration instead of the
/// reduced default.
inline bool full_scale_requested() {
  // getenv suppression rationale: nothing in the process calls
  // setenv; the environment is read-only after exec.
  const char* env = std::getenv("SPARSENN_FULL");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr) return false;
  std::string value = env;
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char ch) {
                   return static_cast<char>(std::tolower(ch));
                 });
  return value == "1" || value == "true" || value == "yes" || value == "on";
}

inline Scale resolve_scale() {
  Scale s;
  if (full_scale_requested()) {
    s.full = true;
    s.hidden = 1000;
    s.train_size = 10000;
    s.test_size = 2000;
    s.epochs = 10;
    s.sim_samples = 8;
  }
  return s;
}

inline void announce(const Scale& s, const char* what) {
  std::cout << "# " << what << "\n"
            << "# scale: " << (s.full ? "FULL (paper)" : "reduced")
            << "  hidden=" << s.hidden << " train=" << s.train_size
            << " epochs=" << s.epochs
            << (s.full ? "" : "   (set SPARSENN_FULL=1 for paper scale)")
            << "\n";
}

inline DatasetOptions dataset_options(const Scale& s,
                                      std::uint64_t seed = 7) {
  DatasetOptions d;
  d.train_size = s.train_size;
  d.test_size = s.test_size;
  d.seed = seed;
  return d;
}

inline TrainOptions train_options(const Scale& s, PredictorKind kind,
                                  std::size_t rank) {
  TrainOptions t;
  t.kind = kind;
  t.rank = rank;
  t.epochs = s.epochs;
  return t;
}

}  // namespace sparsenn::bench
