#pragma once
// The compiled-image cache: one capacity-bounded LRU of compiled
// per-PE slice images keyed on (arch, network version, uv mode). A
// compiled image is only meaningful for the architecture it was
// sliced for, so the arch is part of the key, and one zoo serves
// models deployed against mixed ArchParams configs (paper 64-PE next
// to reduced 16-PE experiments) side by side. The arch is matched by
// value (ArchParams::operator==): a fetch builds no string key.
//
// Semantics:
//   - get() compiles at most once per live key and serves every
//     ExecutionEngine backend (cycle and analytic) the same image;
//   - when the zoo is full, inserting a new image evicts the least
//     recently used one, whatever its arch; a re-requested evicted
//     network simply recompiles — images are pure functions of
//     (network state, arch, uv), so results are bit-identical after
//     recompilation (tests/model_zoo_test pins it);
//   - a network version is its shared layer list
//     (QuantizedNetwork::same_version): every copy of a network hits
//     the same images, and a threshold change makes a new version that
//     compiles afresh. The old version's images stay valid — each image
//     holds its own copy of its network — until evicted or dropped by
//     invalidate(network);
//   - an invalid arch throws std::invalid_argument from get() before
//     anything is evicted or counted.
//
// Thread-safety: every member function may be called concurrently.
// One sync::Mutex guards the entries and the counters
// (SPARSENN_GUARDED_BY, so clang's -Wthread-safety proves every access
// is locked). A miss compiles under the lock, which guarantees at most
// one compile per key under concurrent fetches of the same image.
// get() hands out a shared_ptr that co-owns the image: eviction and
// invalidation only drop the zoo's own reference, so an image held by
// an in-flight inference stays alive (and bit-exact) until that
// inference releases it — an eviction can race an arbitrarily long
// cycle-engine run under multi-model serving churn.

#include <cstdint>
#include <list>
#include <memory>

#include "arch/params.hpp"
#include "common/sync.hpp"
#include "nn/quantized.hpp"
#include "sim/compiled_network.hpp"

namespace sparsenn {

class ModelZoo {
 public:
  /// Default bound: generous for one serving node, small enough that a
  /// runaway sweep over ever-fresh networks cannot hold the whole
  /// model catalogue in memory.
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit ModelZoo(std::size_t capacity = kDefaultCapacity);

  /// Live compiled images currently held, over every arch (at most
  /// the capacity).
  std::size_t size() const SPARSENN_EXCLUDES(mutex_);

  /// The compiled image of (network's version, uv) for `arch`: a hit
  /// refreshes the entry's recency; a miss compiles, inserting as
  /// most-recent and evicting the LRU entry when full. The returned
  /// pointer pins the image: it stays valid (and bit-exact) even if
  /// the entry is evicted or invalidated while held.
  std::shared_ptr<const CompiledNetwork> get(const QuantizedNetwork& network,
                                             const ArchParams& arch,
                                             bool use_predictor)
      SPARSENN_EXCLUDES(mutex_);

  /// Whether a live image exists for (network's version, arch, uv).
  bool contains(const QuantizedNetwork& network, const ArchParams& arch,
                bool use_predictor) const SPARSENN_EXCLUDES(mutex_);

  /// Drops every image.
  void invalidate() SPARSENN_EXCLUDES(mutex_);

  /// Drops all images of `network`'s version (every arch, both uv
  /// modes); returns how many were dropped.
  std::size_t invalidate(const QuantizedNetwork& network)
      SPARSENN_EXCLUDES(mutex_);

  // Observability for tests and serving dashboards.
  std::uint64_t compile_count() const SPARSENN_EXCLUDES(mutex_);
  std::uint64_t hit_count() const SPARSENN_EXCLUDES(mutex_);
  std::uint64_t eviction_count() const SPARSENN_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;
  mutable sync::Mutex mutex_;
  /// MRU first. Each image carries its own key (params(), network(),
  /// use_predictor()).
  std::list<std::shared_ptr<const CompiledNetwork>> entries_
      SPARSENN_GUARDED_BY(mutex_);
  std::uint64_t compile_count_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t hit_count_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t eviction_count_ SPARSENN_GUARDED_BY(mutex_) = 0;
};

}  // namespace sparsenn
