#pragma once
// The 4-input routing node of SparseNN's H-tree (paper Section V.B and
// Fig. 4c). A router runs one of two modes:
//
//   kArbitrate — upward activation traffic: among the input buffers'
//     head flits, the smallest activation index wins and is forwarded
//     to the parent; the rest wait (buffered flow control). This is the
//     source of out-of-order delivery across different subtrees.
//
//   kAccumulate — V-phase partial-sum reduction: the router waits until
//     every connected child's head flit carries the same row index,
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

  /// Marks a port as permanently drained for this phase (its child will
  /// send nothing more); lets kAccumulate finish on ragged inputs.
  void set_port_closed(std::size_t port, bool closed);

  /// Computes this cycle's output decision from begin-of-cycle state.
  /// `parent_ready` is the credit view toward the parent. Returns the
  /// flit that leaves this cycle, if any. Call commit() after every
  /// component computed its transfer.
  std::optional<Flit> step(bool parent_ready) {
    granted_port_.reset();
    granted_all_ = false;

    std::optional<Flit> out =
        mode_ == RouterMode::kArbitrate ? arbitrate() : accumulate();
    last_step_decided_ = out.has_value();
    if (out && !parent_ready) {
      ++stats_.credit_stalls;
      granted_port_.reset();
      granted_all_ = false;
      return std::nullopt;
    }
    return out;
  }

  /// True when the last step() produced an output decision — even one
  /// that was then cancelled by a closed parent credit window (a
  /// cancelled decision still charges statistics, so a cycle containing
  /// one is never a pure wait cycle). The event core's wait-skip window
  /// requires every router's last step to have decided nothing.
  bool last_step_decided() const noexcept { return last_step_decided_; }

  /// True when input port `port` has been closed via set_port_closed.
  bool port_closed(std::size_t port) const {
    expects(port < inputs_.size(), "router port out of range");
    return inputs_[port].closed;
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

  /// True when every input port has been closed (phase drained).
  bool all_closed() const;

  /// Cycles committed so far (commit(), settle() and skip_waiting()
  /// advance it); every counter covers exactly these cycles.
  std::uint64_t clock() const noexcept { return now_; }

  /// Brings clock() up to `cycle` through cycles in which the router
  /// granted nothing: it was empty, or its head flits waited on a
  /// closed parent credit window the whole time, so each cycle repeats
  /// the same decision. Bit-identical to (cycle − clock()) step(false)
  /// + commit() pairs in that state: the conflict and credit-stall
  /// counters advance per cycle, occupancy accumulates the frozen
  /// buffer population, and in-flight credits expire exactly as they
  /// would have. Requires kArbitrate mode (or an empty router) and
  /// cycle >= clock(). Inline: the event core's W phase settles a
  /// router before every read of its ports, mostly a no-op.
  void settle(std::uint64_t cycle) {
    if (cycle != now_) advance_frozen(cycle);
  }

  /// The input port the last step() granted in kArbitrate mode, until
  /// commit() retires it.
  std::optional<std::size_t> granted_port() const noexcept {
    return granted_port_;
  }

  /// Advances `k` pure wait cycles: the router may hold flits but its
  /// last step decided nothing (see last_step_decided), its state is
  /// frozen for the window, and its credits are quiet — so each
  /// skipped cycle only accumulates occupancy and ticks the clock.
  /// Bit-identical to k step(·)+commit() pairs in that state.
  void skip_waiting(std::uint64_t k);

  /// True when no credit is still travelling back to a child (a credit
  /// in flight could reopen a port mid-window, so the event core's
  /// skip windows require quiet credits).
  bool credits_quiet() const noexcept;

  /// Returns the router to its just-constructed state (empty buffers,
  /// open ports, zeroed stats and cycle counter) without releasing any
  /// storage — bit-identical to a freshly built router.
  void reset();

  const RouterStats& stats() const noexcept { return stats_; }

 private:
  struct Port {
    /// Fixed ring of `buffer_depth_` flits, sized at construction.
    RingBuffer<Flit> buffer;
    bool closed = false;
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
  std::uint32_t granted_row_cache_ = 0;       ///< row the ACC fired on
  /// Whether the previous step() produced an output decision (before
  /// any credit cancellation). Starts true so a phase's first cycle
  /// can never look like a wait cycle.
  bool last_step_decided_ = true;
};

}  // namespace sparsenn
