#pragma once
// Annotated synchronisation primitives: Clang thread-safety analysis
// over std::mutex / std::condition_variable.
//
// Every locking site in the library goes through these wrappers
// instead of <mutex> directly (tools/lint/check_invariants.py enforces
// it), because the wrappers carry Clang *capability* annotations:
//
//   sync::Mutex mutex_;
//   std::size_t total_ SPARSENN_GUARDED_BY(mutex_);   // field contract
//   void drain() SPARSENN_REQUIRES(mutex_);            // callee contract
//   std::size_t size() const SPARSENN_EXCLUDES(mutex_);// self-deadlock
//
// With those contracts written down, `clang++ -Wthread-safety` proves
// at compile time — on every build, for every interleaving — that no
// guarded field is touched without its mutex, that REQUIRES helpers
// are only called under the right lock, and that EXCLUDES entry points
// cannot recursively self-deadlock. GCC compiles the same code with
// every annotation expanded to nothing (the attribute is a Clang
// extension), so the wrappers cost exactly a std::mutex either way;
// the GCC CI jobs prove the no-op path, the clang CI jobs prove the
// contracts. Dynamic tools (TSan, the chaos storms) still run — they
// check the interleavings that happen; this layer checks the ones
// that could.
//
// How to annotate a new lock:
//   1. declare a `sync::Mutex` member (never a raw std::mutex);
//   2. tag every field it protects with SPARSENN_GUARDED_BY(mutex_)
//      — the compiler then *finds* every unprotected access for you;
//   3. lock with `const sync::MutexLock lock(mutex_);` (RAII) or
//      `sync::UniqueLock` when a CondVar wait needs to drop the lock;
//   4. private helpers that expect the lock held get
//      SPARSENN_REQUIRES(mutex_); public methods that take the lock
//      get SPARSENN_EXCLUDES(mutex_);
//   5. predicates read inside a CondVar wait loop must live in the
//      annotated function body, not in a lambda (the analysis treats a
//      lambda as a separate unannotated function — hand-roll the wait
//      loop, see serve/request_queue.hpp).
//
// The macro set mirrors the Clang documentation's canonical names
// (CAPABILITY, GUARDED_BY, REQUIRES, ACQUIRE/RELEASE, EXCLUDES, ...)
// under a SPARSENN_ prefix.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define SPARSENN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SPARSENN_THREAD_ANNOTATION(x)  // no-op: GCC/MSVC lack the analysis
#endif

/// Marks a type as a lockable capability ("mutex" names it in
/// diagnostics).
#define SPARSENN_CAPABILITY(x) SPARSENN_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor
/// releases a capability.
#define SPARSENN_SCOPED_CAPABILITY SPARSENN_THREAD_ANNOTATION(scoped_lockable)
/// Field contract: reads and writes require holding `x`.
#define SPARSENN_GUARDED_BY(x) SPARSENN_THREAD_ANNOTATION(guarded_by(x))
/// Pointer contract: the *pointee* is protected by `x`.
#define SPARSENN_PT_GUARDED_BY(x) SPARSENN_THREAD_ANNOTATION(pt_guarded_by(x))
/// Callee contract: the caller must already hold the listed locks.
#define SPARSENN_REQUIRES(...) \
  SPARSENN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the listed locks (or `this` capability when empty).
#define SPARSENN_ACQUIRE(...) \
  SPARSENN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed locks (or `this` capability when empty).
#define SPARSENN_RELEASE(...) \
  SPARSENN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function may acquire; the first argument is the success value.
#define SPARSENN_TRY_ACQUIRE(...) \
  SPARSENN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the listed locks (self-deadlock prevention on
/// public entry points that take them).
#define SPARSENN_EXCLUDES(...) \
  SPARSENN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// The function returns a reference to the named capability.
#define SPARSENN_RETURN_CAPABILITY(x) \
  SPARSENN_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disables the analysis for one function. Every use
/// needs a comment explaining why the contract cannot be expressed.
#define SPARSENN_NO_THREAD_SAFETY_ANALYSIS \
  SPARSENN_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sparsenn::sync {

class CondVar;
class UniqueLock;

/// std::mutex as an annotated capability. Same size, same cost — the
/// annotations exist only at compile time.
class SPARSENN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SPARSENN_ACQUIRE() { mutex_.lock(); }
  void unlock() SPARSENN_RELEASE() { mutex_.unlock(); }
  bool try_lock() SPARSENN_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class UniqueLock;
  std::mutex mutex_;
};

/// std::lock_guard equivalent: acquires for the whole scope, no early
/// release. The cheapest way to satisfy a GUARDED_BY contract.
class SPARSENN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SPARSENN_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SPARSENN_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// std::unique_lock equivalent: needed wherever a CondVar waits (the
/// wait drops and reacquires the lock) or the lock is released early
/// (e.g. before a notify). The analysis tracks unlock()/lock() calls,
/// and the destructor releases only if still held.
class SPARSENN_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) SPARSENN_ACQUIRE(mutex)
      : lock_(mutex.mutex_) {}
  ~UniqueLock() SPARSENN_RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() SPARSENN_ACQUIRE() { lock_.lock(); }
  void unlock() SPARSENN_RELEASE() { lock_.unlock(); }
  bool owns_lock() const noexcept { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable over sync::Mutex (via UniqueLock). The wait
/// calls carry no annotations on purpose: a wait releases and
/// reacquires the lock, which the analysis cannot express — from the
/// caller's point of view the capability is held continuously across
/// the call, which is exactly the guarantee the wait provides on
/// return. Predicates belong in the caller's (annotated) wait loop,
/// not in lambdas — see the sync.hpp header comment.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock.lock_, dur);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace sparsenn::sync
