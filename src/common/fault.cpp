#include "common/fault.hpp"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/sync.hpp"

namespace sparsenn::fault {

namespace {

/// splitmix64 finaliser — the same mixing step Rng uses for seeding.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(std::string_view name) noexcept {
  // FNV-1a: stable across runs/platforms (std::hash is not guaranteed
  // to be, and reproducibility from the seed is the whole point).
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Stateless firing decision for probability triggers: a pure function
/// of (seed, point, hit index, spec index), so the set of firing hit
/// indices does not depend on thread interleaving.
bool coin(std::uint64_t seed, std::uint64_t point_hash,
          std::uint64_t hit_index, std::size_t spec_index,
          double probability) noexcept {
  const std::uint64_t u = mix64(seed ^ mix64(point_hash ^ mix64(
                              hit_index ^ (spec_index * 0x9e3779b9ull))));
  // 53 high bits → uniform double in [0, 1).
  const double unit =
      static_cast<double>(u >> 11) * 0x1.0p-53;
  return unit < probability;
}

struct ArmedSpec {
  FaultSpec spec;
  bool one_shot_fired = false;
};

struct PointState {
  std::vector<ArmedSpec> specs;
  PointStats stats;
};

struct Registry {
  sync::Mutex mutex;
  std::uint64_t seed SPARSENN_GUARDED_BY(mutex) = 0;
  std::map<std::string, PointState, std::less<>> points
      SPARSENN_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

const char* to_string(FaultAction action) noexcept {
  switch (action) {
    case FaultAction::kThrow: return "throw";
    case FaultAction::kDelay: return "delay";
    case FaultAction::kCorrupt: return "corrupt";
  }
  return "unknown";
}

void corrupt_i16(std::span<std::int16_t> values) noexcept {
  for (std::int16_t& v : values) v ^= kCorruptMask;
}

void arm(std::uint64_t seed) {
  Registry& r = registry();
  const sync::MutexLock lock(r.mutex);
  r.seed = seed;
  r.points.clear();
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void add(FaultSpec spec) {
  expects(!spec.point.empty(), "fault spec needs a point name");
  expects(spec.probability > 0.0 || spec.every_n > 0 || spec.one_shot,
          "fault spec needs a trigger (probability, every_n or one_shot)");
  expects(spec.probability <= 1.0, "fault probability must be <= 1");
  Registry& r = registry();
  const sync::MutexLock lock(r.mutex);
  expects(detail::g_armed.load(std::memory_order_relaxed),
          "arm() the fault registry before add()ing specs");
  r.points[spec.point].specs.push_back(ArmedSpec{std::move(spec), false});
}

void disarm() {
  Registry& r = registry();
  const sync::MutexLock lock(r.mutex);
  detail::g_armed.store(false, std::memory_order_relaxed);
  r.points.clear();
  r.seed = 0;
}

bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

std::uint64_t seed() noexcept {
  Registry& r = registry();
  const sync::MutexLock lock(r.mutex);
  return r.seed;
}

std::map<std::string, PointStats> snapshot() {
  Registry& r = registry();
  const sync::MutexLock lock(r.mutex);
  std::map<std::string, PointStats> out;
  for (const auto& [name, state] : r.points) out[name] = state.stats;
  return out;
}

namespace detail {

bool hit(std::string_view point_name) {
  std::uint64_t delay_us = 0;
  bool do_throw = false;
  bool do_corrupt = false;
  std::string message;
  {
    Registry& r = registry();
    const sync::MutexLock lock(r.mutex);
    // Racing a disarm: treat as disarmed.
    if (!g_armed.load(std::memory_order_relaxed)) return false;
    const auto it = r.points.find(point_name);
    if (it == r.points.end()) return false;
    PointState& state = it->second;
    const std::uint64_t hit_index = state.stats.hits++;
    const std::uint64_t point_hash = hash_name(point_name);
    for (std::size_t s = 0; s < state.specs.size(); ++s) {
      ArmedSpec& armed = state.specs[s];
      bool fire = false;
      if (armed.spec.one_shot) {
        fire = !armed.one_shot_fired;
        armed.one_shot_fired = armed.one_shot_fired || fire;
      } else if (armed.spec.every_n > 0) {
        fire = (hit_index + 1) % armed.spec.every_n == 0;
      } else {
        fire = coin(r.seed, point_hash, hit_index, s,
                    armed.spec.probability);
      }
      if (!fire) continue;
      switch (armed.spec.action) {
        case FaultAction::kThrow:
          do_throw = true;
          message = armed.spec.message;
          ++state.stats.throws;
          break;
        case FaultAction::kDelay:
          delay_us += armed.spec.delay_us;
          ++state.stats.delays;
          break;
        case FaultAction::kCorrupt:
          do_corrupt = true;
          ++state.stats.corruptions;
          break;
      }
    }
  }
  // Side effects happen outside the registry lock: a long injected
  // hang must not serialise every other fault point against it.
  if (delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  if (do_throw) throw FaultInjectedError(message);
  return do_corrupt;
}

}  // namespace detail

}  // namespace sparsenn::fault
