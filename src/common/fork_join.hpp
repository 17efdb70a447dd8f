#pragma once
// The library's one fork-join helper: run a fixed set of independent
// tasks on a few threads, the calling thread among them.
//
// Deployment (nn/quantized.cpp), BatchRunner (sim/batch_runner.cpp)
// and the trainer's minibatch pool (nn/trainer.cpp) all run through
// it. Task 0 runs on the calling thread; the others are claimed in
// ascending order from one shared cursor, so which thread runs them is
// up to the scheduler. A caller whose results must not depend on the
// thread count gives every task its own output and reads the outputs
// in index order after the call.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace sparsenn {

/// Runs task(0), …, task(tasks − 1), each exactly once, on at most
/// `threads` threads counting the caller (0 counts as 1). The caller
/// starts min(threads, tasks) − 1 helper threads, runs task 0 itself,
/// and then claims tasks beside them; with one thread or one task no
/// thread starts.
///
/// Every task runs even when another throws or a helper fails to
/// start, every started helper is joined on every path, and the first
/// exception caught — a task's, or a failed thread start's — is
/// rethrown on the calling thread after the join. `task` is called
/// concurrently from several threads.
template <typename Task>
void fork_join(std::size_t tasks, std::size_t threads, Task&& task) {
  if (tasks == 0) return;
  std::atomic<std::size_t> cursor{1};  // task 0 is the caller's
  // Only the thread that flips `failed` writes `first`; the caller reads
  // it after every join, so the slot needs no lock.
  std::atomic<bool> failed{false};
  std::exception_ptr first;
  const auto record = [&] {
    if (!failed.exchange(true, std::memory_order_relaxed))
      first = std::current_exception();
  };
  const auto run = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      record();
    }
  };
  const auto drain = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < tasks; i = cursor.fetch_add(1, std::memory_order_relaxed))
      run(i);
  };

  std::vector<std::thread> helpers;
  const std::size_t width =
      std::min(std::max<std::size_t>(threads, 1), tasks);
  if (width > 1) {
    try {
      helpers.reserve(width - 1);
      for (std::size_t t = 1; t < width; ++t) helpers.emplace_back(drain);
    } catch (...) {
      record();  // fewer helpers; the caller still drains every task
    }
  }
  run(0);
  drain();
  for (std::thread& helper : helpers) helper.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace sparsenn
