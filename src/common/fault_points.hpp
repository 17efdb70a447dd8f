#pragma once
// Canonical registry of fault-point names.
//
// Every `fault::point("name")` call site in src/ must use a name from
// this list, and every name here must have at least one src/ call
// site — tools/lint/check_invariants.py parses this file and enforces
// both directions on every CI run. The rule exists because a fault
// point is addressed by string: a typo at a call site (or in a test's
// FaultSpec) does not fail to compile, it silently never fires, and a
// chaos test that thinks it is injecting faults quietly tests nothing.
//
// To add a fault point: append its name here (keep the array sorted —
// the static_assert below pins it), plant `fault::point("the.name")`
// at the production boundary, and the linter is satisfied; forget
// either half and CI fails with the exact name.
//
// Naming convention: lowercase dotted paths, `subsystem.boundary`
// (e.g. "zoo.compile", "serve.worker.hang") — enforced by the linter.

#include <algorithm>
#include <iterator>
#include <string_view>

namespace sparsenn::fault_points {

/// Every fault point the library plants, sorted. Tests may arm any of
/// these; tests may additionally hit private local names they plant
/// themselves (the linter allows a spec name that the same file also
/// hits directly).
inline constexpr std::string_view kAll[] = {
    "engine.run",            // sim/accelerator.cpp, sim/analytic_engine.cpp
    "serve.breaker.probe",   // serve/health.cpp half-open probe admission
    "serve.degrade.run",     // serve/frontend.cpp analytic-fallback run
    "serve.queue.push",      // serve/request_queue.hpp admission path
    "serve.result.corrupt",  // serve/frontend.cpp result hand-off
    "serve.worker.batch",    // serve/frontend.cpp batch entry
    "serve.worker.hang",     // serve/frontend.cpp per-request loop
    "zoo.compile",           // core/model_zoo.cpp compile boundary
};

static_assert(std::is_sorted(std::begin(kAll), std::end(kAll)),
              "keep the fault-point registry sorted");
static_assert(std::adjacent_find(std::begin(kAll), std::end(kAll)) ==
                  std::end(kAll),
              "fault-point names must be unique");

}  // namespace sparsenn::fault_points
