#pragma once
// Global operator-new counting hook shared by tests/result_arena_test
// and perfbench: the single source of truth for what "a heap
// allocation" means when the repo asserts allocation-free inference.
//
// Including this header REPLACES the global allocator for the whole
// binary (replacement functions must be non-inline, so include it from
// exactly one translation unit per executable — result_arena_test is a
// single-TU binary and perfbench includes it from main.cpp only). It
// counts every usual, nothrow and over-aligned operator new; deletes
// are pass-throughs.
//
// Never include this from library code: libsparsenn must not impose a
// counting allocator on its users.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace sparsenn::alloc_counter {

/// Total global operator-new calls in this binary so far. Sample
/// before/after a region and subtract.
inline std::atomic<std::uint64_t>& count() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

}  // namespace sparsenn::alloc_counter

void* operator new(std::size_t size) {
  ++sparsenn::alloc_counter::count();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++sparsenn::alloc_counter::count();
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++sparsenn::alloc_counter::count();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) == 0)
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
