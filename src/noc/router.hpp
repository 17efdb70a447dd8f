#pragma once
// The 4-input routing node of SparseNN's H-tree (paper Section V.B and
// Fig. 4c). A router runs one of two modes:
//
//   kArbitrate — upward activation traffic: among the input buffers'
//     head flits, the smallest activation index wins and is forwarded
//     to the parent; the rest wait (buffered flow control). This is the
//     source of out-of-order delivery across different subtrees.
//
//   kAccumulate — V-phase partial-sum reduction: every child sends
//     one partial sum per row, in row order, so the router waits until
//     every port holds a flit (all heads then carry the same row),
//     adds the payloads in the ACC pipeline stage, and forwards one
//     combined flit.
//
// Flow control is credit-based: a child may only send when the parent
// buffer it targets has a free slot; credits return with a configurable
// latency. With buffer depth 1 and credit latency equal to the router
// pipeline depth this degrades to the unbuffered handshake used by the
// ablation study.
//
// The port buffers are fixed-capacity rings sized at construction and
// the router never allocates during simulation, so the owning tree can
// be reset and reused across phases, layers and inferences without
// touching the heap.

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/ring_buffer.hpp"
#include "noc/flit.hpp"

namespace sparsenn {

enum class RouterMode { kArbitrate, kAccumulate };

/// One H-tree routing node with `radix` input ports and one output.
class Router {
 public:
  Router(std::size_t radix, std::size_t buffer_depth,
         std::size_t credit_latency, RouterMode mode);

  std::size_t radix() const noexcept { return inputs_.size(); }
  RouterMode mode() const noexcept { return mode_; }

  /// True when port `port` can accept a flit this cycle (credit view of
  /// the child). Inline — the cycle loop calls this for every
  /// injection candidate and parent link every cycle.
  bool can_accept(std::size_t port) const {
    expects(port < inputs_.size(), "router port out of range");
    const Port& p = inputs_[port];
    // Credits still travelling back to the child occupy a slot from
    // the child's point of view. A latency-1 credit (the buffered
    // flow-control default) is stamped now+1 at commit and the clock
    // advances before the next decision phase, so it can never satisfy
    // stamp > now_ — those routers skip the bookkeeping entirely (see
    // commit() and commit_grant()).
    std::size_t in_flight = 0;
    if (credit_latency_ > 1) {
      for (std::size_t stamp : p.pending_credits)
        if (stamp > now_) ++in_flight;
    }
    return p.buffer.size() + in_flight < buffer_depth_;
  }

  /// Child pushes a flit into the port buffer. Precondition:
  /// can_accept(port).
  void push(std::size_t port, const Flit& flit) {
    expects(port < inputs_.size(), "router port out of range");
    ensures(!inputs_[port].buffer.full(),
            "router buffer overflow (credit protocol violated)");
    inputs_[port].buffer.push_back(flit);
    ++buffered_;
  }

  /// Computes this cycle's output decision from begin-of-cycle state.
  /// `parent_ready` is the credit view toward the parent. Returns the
  /// flit that leaves this cycle, if any. Call commit() after every
  /// component computed its transfer.
  std::optional<Flit> step(bool parent_ready) {
    granted_port_.reset();
    granted_all_ = false;

    std::optional<Flit> out =
        mode_ == RouterMode::kArbitrate ? arbitrate() : accumulate();
    if (out && !parent_ready) {
      ++stats_.credit_stalls;
      granted_port_.reset();
      granted_all_ = false;
      return std::nullopt;
    }
    return out;
  }

  /// True when step() makes an output decision on the current state:
  /// the router holds a flit and, in kAccumulate mode, every port holds
  /// one (otherwise the reduction waits for the laggard). Whether the
  /// decision then leaves depends only on the parent's credit window.
  bool has_output() const noexcept {
    if (buffered_ == 0) return false;
    if (mode_ == RouterMode::kArbitrate) return true;
    for (const Port& p : inputs_)
      if (p.buffer.empty()) return false;
    return true;
  }

  /// Finalises the cycle: retires the granted flit, returns credits.
  void commit() {
    if (granted_port_ || granted_all_) commit_grant();

    stats_.buffer_occupancy_sum += buffered_;
    ++stats_.cycles;
    if (credit_latency_ > 1) {
      for (Port& p : inputs_) {
        if (!p.pending_credits.empty()) {
          std::erase_if(p.pending_credits, [this](std::size_t stamp) {
            return stamp <= now_;
          });
        }
      }
    }
    ++now_;
  }

  /// True when all buffers are empty and nothing is in flight. O(1):
  /// the buffered-flit count is maintained incrementally.
  bool idle() const noexcept { return buffered_ == 0; }

  /// Flits currently sitting in the port buffers.
  std::size_t buffered() const noexcept { return buffered_; }

  /// Brings the router's clock (the cycles committed so far, which
  /// every counter covers) up to `cycle` through frozen cycles: no
  /// push or pop changed the router, and it granted nothing, because
  /// it had no output decision (empty, or a reduction waiting for a
  /// laggard) or its decision waited on a closed parent credit window
  /// the whole time. Each such cycle repeats the same decision, so
  /// this is bit-identical to one step(false) + commit() pair per
  /// cycle in that state: a cycle with a decision charges a credit
  /// stall (and, when arbitrating between several head flits, a
  /// conflict), occupancy accumulates the frozen buffer population,
  /// and in-flight credits expire exactly as they would have. Requires
  /// `cycle` at or after the clock. Inline: the event core settles a
  /// router before every read of its ports, mostly a no-op.
  void settle(std::uint64_t cycle) {
    if (cycle != now_) advance_frozen(cycle);
  }

  /// The input port the last step() granted in kArbitrate mode, until
  /// commit() retires it.
  std::optional<std::size_t> granted_port() const noexcept {
    return granted_port_;
  }

  /// Returns the router to its just-constructed state (empty buffers,
  /// zeroed stats and cycle counter) without releasing any storage —
  /// bit-identical to a freshly built router.
  void reset();

  const RouterStats& stats() const noexcept { return stats_; }

 private:
  struct Port {
    /// Fixed ring of `buffer_depth_` flits, sized at construction.
    RingBuffer<Flit> buffer;
    /// Slots freed this cycle whose credit is still travelling back.
    std::vector<std::size_t> pending_credits;  ///< release cycle stamps
  };

  /// Arbitration decision — inline, it runs per router per cycle.
  std::optional<Flit> arbitrate() {
    std::size_t winner = inputs_.size();
    std::uint32_t best_row = 0;
    std::size_t candidates = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i].buffer.empty()) continue;
      const std::uint32_t row = inputs_[i].buffer.front().index;
      if (candidates == 0 || row < best_row) {
        winner = i;
        best_row = row;
      }
      ++candidates;
    }
    if (candidates == 0) return std::nullopt;
    if (candidates > 1) ++stats_.arbitration_conflicts;
    granted_port_ = winner;
    return inputs_[winner].buffer.front();
  }

  std::optional<Flit> accumulate();

  /// Slow half of commit(): retires the granted flit and issues the
  /// return credit.
  void commit_grant();

  /// Erases credits that would have expired during cycles now passed
  /// (a commit at clock t erases stamps <= t before advancing).
  void drop_expired_credits();

  /// Slow half of settle(): the frozen cycles up to `cycle`.
  void advance_frozen(std::uint64_t cycle);

  std::vector<Port> inputs_;
  std::size_t buffer_depth_;
  std::size_t credit_latency_;
  RouterMode mode_;
  RouterStats stats_;
  std::uint64_t now_ = 0;
  std::size_t buffered_ = 0;                  ///< Σ port counts
  std::optional<std::size_t> granted_port_;   ///< arbitrate winner
  bool granted_all_ = false;                  ///< accumulate fired
};

}  // namespace sparsenn
