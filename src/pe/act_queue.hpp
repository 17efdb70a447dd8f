#pragma once
// The PE's input activation queue (ActQueue in paper Fig. 5): a small
// FIFO decoupling NoC delivery from datapath consumption. Its depth is
// what lets the buffered NoC keep every PE fed one activation per cycle
// even when consumption rates differ across PEs. Backed by a fixed
// RingBuffer, so the per-cycle push/pop never touches the heap.

#include "common/check.hpp"
#include "common/ring_buffer.hpp"
#include "noc/flit.hpp"

namespace sparsenn {

class ActQueue {
 public:
  explicit ActQueue(std::size_t depth) : ring_(depth) {
    expects(depth > 0, "activation queue depth must be positive");
  }

  bool full() const noexcept { return ring_.full(); }
  bool empty() const noexcept { return ring_.empty(); }
  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t free_slots() const noexcept {
    return ring_.capacity() - ring_.size();
  }

  void push(const Flit& flit) {
    ensures(!full(), "ActQueue overflow (backpressure violated)");
    ring_.push_back(flit);
  }

  const Flit& front() const {
    expects(!empty(), "ActQueue underflow");
    return ring_.front();
  }

  void pop() {
    expects(!empty(), "ActQueue underflow");
    ring_.pop_front();
  }

 private:
  RingBuffer<Flit> ring_;
};

}  // namespace sparsenn
