#pragma once
// Deterministic, seeded fault injection for robustness testing.
//
// Production code marks interesting boundaries with *named fault
// points* — `fault::point("engine.run")` — which are inert no-ops
// until a test arms the global registry with a seed and a set of
// FaultSpecs. An armed point can
//
//   kThrow   — throw FaultInjectedError (an engine crash, an
//              allocation blow-up ... any exception the containment
//              layer must convert into a per-request failure),
//   kDelay   — sleep for delay_us (a slow dependency, or — with a
//              delay beyond the serving watchdog's stall bound — a
//              hung worker), or
//   kCorrupt — tell the *caller* to corrupt its result detectably
//              (point() returns true; the caller applies
//              corrupt_i16(), a fixed XOR mask a checker can verify
//              exactly).
//
// Triggers are per-spec and evaluated per hit: `probability` fires a
// seeded coin flip, `every_n` fires every Nth hit of the point, and
// `one_shot` fires on exactly the first hit. Probability decisions are
// *stateless*: hit k of point P fires iff
// hash(seed, P, k, spec) < probability — so for a fixed workload the
// set of firing hit-indices is a pure function of the seed, regardless
// of which thread draws which index. tests/chaos_test.cpp drives fault
// storms through the serving tier on top of this and pins
// reproducibility on a single-worker schedule.
//
// Cost when disarmed: one relaxed atomic load and a predicted branch
// per point — the serving saturation floor in tests/perf_floor_test
// runs with the registry disarmed. Defining
// SPARSENN_DISABLE_FAULT_INJECTION compiles every point to a
// constant-false no-op for builds that want the hook gone entirely.
//
// Thread-safety: arm/disarm/add and the hit path serialise on one
// registry mutex (the framework is only armed in tests); the armed
// flag itself is a lock-free atomic so disarmed points never touch
// the mutex. The registry state is SPARSENN_GUARDED_BY-annotated
// (common/sync.hpp), so clang's -Wthread-safety proves the locking.
//
// Point names are strings, so a typo never fails to compile — it
// silently never fires. The canonical name list lives in
// common/fault_points.hpp and tools/lint/check_invariants.py enforces
// that every src/ call site and every registry entry agree.

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sparsenn::fault {

/// Thrown by an armed kThrow fault point. Derives std::runtime_error
/// so containment layers treat it like any real failure; the distinct
/// type lets tests assert the failure they observed was the injected
/// one.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultAction {
  kThrow,    ///< throw FaultInjectedError{message}
  kDelay,    ///< sleep delay_us before returning
  kCorrupt,  ///< point() returns true; caller corrupts its result
};

const char* to_string(FaultAction action) noexcept;

/// One armed behaviour of one named point. Exactly one trigger field
/// should be set (probability > 0, every_n > 0, or one_shot); arming
/// a spec with no trigger is a precondition failure.
struct FaultSpec {
  std::string point;                 ///< fault-point name to arm
  FaultAction action = FaultAction::kThrow;
  double probability = 0.0;          ///< fire each hit with this p
  std::uint64_t every_n = 0;         ///< fire hits n-1, 2n-1, ... (0 = off)
  bool one_shot = false;             ///< fire on the first hit only
  std::uint64_t delay_us = 0;        ///< kDelay sleep duration
  std::string message = "injected fault";  ///< kThrow exception text
};

/// Per-point observability: how often the point was reached and what
/// fired there. Snapshots are how tests pin seeded reproducibility.
struct PointStats {
  std::uint64_t hits = 0;
  std::uint64_t throws = 0;
  std::uint64_t delays = 0;
  std::uint64_t corruptions = 0;

  std::uint64_t fires() const noexcept {
    return throws + delays + corruptions;
  }
  friend bool operator==(const PointStats&, const PointStats&) = default;
};

/// The XOR mask kCorrupt callers apply (see corrupt_i16). Chosen to
/// flip a high-magnitude bit so corrupted outputs are far outside
/// rounding noise and exactly reconstructible by a checker.
inline constexpr std::int16_t kCorruptMask = 0x2A55;

/// Applies the detectable corruption to a result vector in place:
/// every element XORed with kCorruptMask. A verifier that holds the
/// golden value detects (and can even undo) it exactly.
void corrupt_i16(std::span<std::int16_t> values) noexcept;

namespace detail {

inline std::atomic<bool> g_armed{false};

/// Slow path: only reached while armed. May sleep and may throw
/// FaultInjectedError; returns whether a kCorrupt spec fired.
bool hit(std::string_view point);

}  // namespace detail

/// The hook production code plants at a failure boundary. Disarmed:
/// one relaxed load, no side effects, returns false. Armed: evaluates
/// every spec registered for `name` against this hit — kDelay sleeps,
/// kThrow throws FaultInjectedError, and the return value says
/// whether a kCorrupt spec fired (the caller then applies
/// corrupt_i16 to whatever "the result" means at that boundary).
inline bool point([[maybe_unused]] std::string_view name) {
#ifdef SPARSENN_DISABLE_FAULT_INJECTION
  return false;
#else
  if (!detail::g_armed.load(std::memory_order_relaxed)) [[likely]]
    return false;
  return detail::hit(name);
#endif
}

/// Arms the registry: clears any previous specs/stats and seeds the
/// probability-trigger hash. Points stay inert until add() registers
/// specs for them.
void arm(std::uint64_t seed);

/// Registers one spec (the registry must be armed). Multiple specs may
/// target the same point; each evaluates independently per hit, delays
/// accumulate, and a throw fires after any delay so hang+crash
/// composes.
void add(FaultSpec spec);

/// Disarms every point and clears specs and stats. Idempotent.
void disarm();

bool armed() noexcept;

/// Current seed (meaningful only while armed).
std::uint64_t seed() noexcept;

/// Per-point stats snapshot, keyed by point name. Only points with at
/// least one armed spec appear.
std::map<std::string, PointStats> snapshot();

/// RAII fault storm for tests: arms on construction, disarms on
/// destruction (exception-safe — a failing ASSERT cannot leave the
/// process-global registry armed for the next test).
class ScopedFaultStorm {
 public:
  explicit ScopedFaultStorm(std::uint64_t seed_value) { arm(seed_value); }
  ~ScopedFaultStorm() { disarm(); }
  ScopedFaultStorm(const ScopedFaultStorm&) = delete;
  ScopedFaultStorm& operator=(const ScopedFaultStorm&) = delete;

  void add(FaultSpec spec) { fault::add(std::move(spec)); }
};

}  // namespace sparsenn::fault
