#include "core/model_zoo.hpp"

#include "common/check.hpp"
#include "common/fault.hpp"

namespace sparsenn {
namespace {

/// Whether `image` is the zoo entry for key (network's version, arch,
/// uv).
bool is_image_of(const CompiledNetwork& image,
                 const QuantizedNetwork& network, const ArchParams& arch,
                 bool use_predictor) {
  return image.network().same_version(network) &&
         image.use_predictor() == use_predictor && image.params() == arch;
}

}  // namespace

ModelZoo::ModelZoo(std::size_t capacity) : capacity_(capacity) {
  expects(capacity_ > 0, "ModelZoo capacity must be at least 1");
}

std::size_t ModelZoo::size() const {
  const sync::MutexLock lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const CompiledNetwork> ModelZoo::get(
    const QuantizedNetwork& network, const ArchParams& arch,
    bool use_predictor) {
  const sync::MutexLock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (is_image_of(**it, network, arch, use_predictor)) {
      // Hit: refresh recency (MRU first) and serve.
      ++hit_count_;
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front();
    }
  }

  // Miss. A bad arch throws here, before it can cost a warm image or
  // count as a compile.
  arch.validate();

  // Chaos hook on the miss path only: an injected compile failure is
  // transient by construction — the retrying caller re-enters here and
  // may succeed on the next attempt. Fires before eviction so a failed
  // compile never costs a warm image.
  (void)fault::point("zoo.compile");

  // Evict down to capacity - 1 before compiling, so the zoo never
  // holds more than `capacity_` images even transiently.
  while (entries_.size() >= capacity_) {
    entries_.pop_back();
    ++eviction_count_;
  }
  entries_.push_front(
      std::make_shared<const CompiledNetwork>(network, arch, use_predictor));
  ++compile_count_;
  return entries_.front();
}

bool ModelZoo::contains(const QuantizedNetwork& network,
                        const ArchParams& arch, bool use_predictor) const {
  const sync::MutexLock lock(mutex_);
  for (const std::shared_ptr<const CompiledNetwork>& image : entries_)
    if (is_image_of(*image, network, arch, use_predictor)) return true;
  return false;
}

void ModelZoo::invalidate() {
  const sync::MutexLock lock(mutex_);
  entries_.clear();
}

std::size_t ModelZoo::invalidate(const QuantizedNetwork& network) {
  const sync::MutexLock lock(mutex_);
  return entries_.remove_if(
      [&network](const std::shared_ptr<const CompiledNetwork>& image) {
        return image->network().same_version(network);
      });
}

std::uint64_t ModelZoo::compile_count() const {
  const sync::MutexLock lock(mutex_);
  return compile_count_;
}

std::uint64_t ModelZoo::hit_count() const {
  const sync::MutexLock lock(mutex_);
  return hit_count_;
}

std::uint64_t ModelZoo::eviction_count() const {
  const sync::MutexLock lock(mutex_);
  return eviction_count_;
}

}  // namespace sparsenn
