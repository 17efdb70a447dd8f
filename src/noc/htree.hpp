#pragma once
// The H-tree of SparseNN (paper Fig. 3b / Fig. 4b — 3 levels at the
// paper's 64-PE scale, built generically for any radix^levels array).
//
// UpwardTree wires radix-ary router tiers from the PEs to the root:
// 16 leaf + 4 internal + 1 root at paper scale. The same structure
// serves two phases:
//   - kArbitrate: W-phase (and V-result redistribution) activation
//     traffic, nonzero activations racing to the root;
//   - kAccumulate: V-phase partial-sum reduction, where each level's
//     ACC stage combines per-row partial sums. Every PE sends one
//     partial sum per row, in row order, so every router sums all of
//     its ports in lock step.
//
// The root-to-PE direction is a contention-free pipelined multicast
// (BroadcastChannel): one flit per cycle enters, and after a fixed
// latency (one pipeline hop per level) it is delivered to every PE —
// subject to the receivers' queue backpressure, which the owner
// expresses through the `ready` argument.
//
// UpwardTree advances two ways with the same results: step() visits
// every router every cycle (the per-cycle reference), and the
// event-driven section visits only the routers that can act, in both
// modes (the event core's V and W phases).
//
// Both halves are built for reuse across phases: step() writes into
// scratch buffers preallocated at construction (no per-cycle heap
// allocation), idle() reads a maintained flit count, and reset()
// returns the structure to its freshly-built state so one tree can
// serve every layer of every inference.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "common/ring_buffer.hpp"
#include "noc/router.hpp"

namespace sparsenn {

/// Aggregated NoC statistics for one phase.
struct NocStats {
  std::uint64_t flit_hops = 0;          ///< router traversals
  std::uint64_t acc_operations = 0;
  std::uint64_t arbitration_conflicts = 0;
  std::uint64_t credit_stalls = 0;
  double mean_leaf_occupancy = 0.0;
  std::uint64_t root_flits = 0;         ///< flits that reached the root

  friend bool operator==(const NocStats&, const NocStats&) = default;
};

/// PE-to-root half of the H-tree.
class UpwardTree {
 public:
  UpwardTree(const ArchParams& params, RouterMode mode);

  std::size_t num_pes() const noexcept { return num_pes_; }

  /// Can PE `pe` inject this cycle? (credit view of its leaf port)
  /// Inline with precomputed leaf links — the cycle loop asks for
  /// every pending injector every cycle, and a runtime divide per
  /// lookup costs more than the credit check itself.
  bool can_inject(std::size_t pe) const {
    expects(pe < num_pes_, "PE id out of range");
    return routers_[leaf_of_[pe]].can_accept(leaf_port_[pe]);
  }
  /// Injects a flit from PE `pe`. Precondition: can_inject(pe).
  void inject(std::size_t pe, const Flit& flit) {
    expects(pe < num_pes_, "PE id out of range");
    routers_[leaf_of_[pe]].push(leaf_port_[pe], flit);
    ++buffered_total_;
  }

  /// Advances one cycle, visiting every router: the per-cycle
  /// reference the event-driven section below is held to.
  /// `root_ready` tells whether the consumer of the root output can
  /// take a flit. Returns the flit leaving the root.
  std::optional<Flit> step(bool root_ready);

  /// True when no flit is buffered anywhere in the tree. O(1): the
  /// total is re-derived from the routers' maintained counts inside
  /// step()'s existing commit pass.
  bool idle() const noexcept { return buffered_total_ == 0; }

  /// Empties every router and zeroes the phase statistics —
  /// bit-identical to constructing a fresh tree, without the
  /// allocations.
  void reset();

  NocStats stats() const;

  // ---- Event-driven stepping (the event core's V and W phases) ----
  //
  // The same tree, in either mode, stepped only where something can
  // change. A router with no output decision (empty, or a reduction
  // waiting for a laggard port) or whose decision waits on a closed
  // parent credit window repeats the same decision every cycle, so it
  // is not visited: its clock (the cycles it has committed) marks the
  // cycle its counters are settled to, and Router::settle adds the
  // frozen cycles at once when a push, a grant or a returning credit
  // next changes it (or its parent's port is read), and at phase end.
  // A cycle steps only the routers that may grant — those that
  // granted, took a flit or had a parent credit return since the last
  // cycle, and the root while its consumer is ready and it has an
  // output decision — and offers injection only to PEs whose leaf port
  // has room; a full port is offered again when the credit of its next
  // grant returns. Bit-identical to inject() and step() on every
  // cycle; tests/noc_fuzz_test.cpp and tests/event_core_test.cpp pin
  // it.
  //
  // One phase: reset(); add_injector() for every PE holding flits (in
  // kAccumulate mode every PE, each holding the same rows, since a
  // reduction waits for every port); then for t = next_cycle(·) (the
  // first injector's cycle first, or any later cycle the caller has
  // work in), until it returns kNoCycle and the caller has none:
  // begin_cycle(t), inject_lazy() for PEs it offers, then step_lazy();
  // finally settle(the phase's last cycle).

  /// next_cycle()'s answer when the tree has nothing scheduled.
  static constexpr std::uint64_t kNoCycle = UINT64_MAX;

  /// PE `pe` holds flits to inject from cycle `first` (>= 1) on: it is
  /// first offered injection then.
  void add_injector(std::size_t pe, std::uint64_t first);

  /// Starts cycle `t`, which must come after the last one started and
  /// no later than next_cycle(·). Returns the PEs whose leaf port can
  /// take a flit this cycle (each may inject one).
  std::span<const std::uint32_t> begin_cycle(std::uint64_t t);

  /// Injects `flit` from `pe`, one of begin_cycle()'s PEs; `more` says
  /// whether the PE holds further flits.
  void inject_lazy(std::size_t pe, const Flit& flit, bool more);

  /// Steps this cycle's routers that may grant, with `root_ready` the
  /// credit view of the root's consumer. Returns the flit leaving the
  /// root.
  std::optional<Flit> step_lazy(bool root_ready);

  /// The next cycle the tree has work in if the root's consumer stays
  /// at `root_ready`: the next cycle when a router may grant or a PE
  /// may inject, else the next credit return or first injection, else
  /// kNoCycle.
  std::uint64_t next_cycle(bool root_ready) const;

  /// Brings every router's counters up to `cycle` (phase end).
  void settle(std::uint64_t cycle);

 private:
  Router& root() noexcept { return routers_.back(); }
  const Router& root() const noexcept { return routers_.back(); }
  std::uint32_t root_id() const noexcept {
    return static_cast<std::uint32_t>(routers_.size() - 1);
  }
  /// Lists router `id` (once) for a check at `cycle`, this cycle or
  /// the next. The root is never listed: step_lazy() checks it.
  void list_router(std::uint32_t id, std::uint64_t cycle);
  /// Offers PE `pe` (once) injection at `cycle`, this cycle or the
  /// next.
  void offer_injection(std::uint32_t pe, std::uint64_t cycle);
  /// Runs router `id`'s real step() this cycle after settling it, and
  /// records it for commit.
  void touch(std::uint32_t id, bool parent_ready);
  /// A credit reaches `target` (a Wake target) at `cycle`: lists the
  /// router or offers the PE injection then, queueing it in wakes_
  /// when that is later than the next cycle.
  void schedule_wake(std::uint32_t target, std::uint64_t cycle);

  std::size_t radix_;
  std::size_t num_pes_;
  /// Every router by flat id: the leaves first, then tier by tier up
  /// to the root, last. A router's children (routers, or PEs for a
  /// leaf) are radix_ consecutive ids, so ascending ids walk the tree
  /// bottom-up. The links below are precomputed: a divide/modulo pair
  /// per lookup would cost more than the credit check it serves.
  std::vector<Router> routers_;
  std::vector<std::uint32_t> parent_of_;    ///< parent's id (not root)
  std::vector<std::uint32_t> port_of_;      ///< port in the parent
  std::vector<std::uint32_t> first_child_;  ///< first child's id
  std::vector<std::uint32_t> leaf_of_;      ///< PE: its leaf's id
  std::vector<std::uint32_t> leaf_port_;    ///< PE: its port in the leaf
  std::uint32_t num_leaves_ = 0;            ///< leaves are ids below it
  /// Output decisions by router id, reused every cycle by step().
  std::vector<std::optional<Flit>> outputs_;
  std::size_t buffered_total_ = 0;  ///< flits sitting in any router

  // ---- event-driven stepping state (reset() clears it) ----
  struct Grant {
    std::uint32_t router;  ///< flat id
    std::uint32_t port;    ///< input port it granted, or kEveryPort
    Flit flit;
  };
  /// A reduction's grant: it pops every port, so every child has a
  /// credit coming back.
  static constexpr std::uint32_t kEveryPort = UINT32_MAX;
  /// A credit returning to a child, or a PE's first injection cycle:
  /// the router `target`, or the PE `target & ~kPeTarget` when
  /// kPeTarget is set.
  struct Wake {
    std::uint64_t cycle;
    std::uint32_t target;
  };
  static constexpr std::uint32_t kPeTarget = 1u << 31;

  /// Cycles from a grant until its child sees the freed slot: 1 for
  /// buffered credits, the credit latency for the unbuffered handshake.
  std::uint64_t credit_delay_ = 1;
  std::uint64_t cycle_ = 0;                 ///< the cycle begun last
  std::vector<std::uint64_t> listed_at_;    ///< router: cycle it is due
  std::vector<std::uint64_t> touched_at_;   ///< router: cycle stepped
  std::vector<std::uint64_t> offered_at_;   ///< PE: cycle offered
  std::vector<std::uint8_t> injecting_;     ///< PE: holds further flits
  std::vector<std::uint32_t> due_;          ///< routers to check now
  std::vector<std::uint32_t> due_next_;     ///< ... next cycle
  std::vector<std::uint32_t> offers_;       ///< PEs offered now
  std::vector<std::uint32_t> offers_next_;  ///< ... next cycle
  std::vector<std::uint32_t> touched_;      ///< routers stepped now
  std::vector<Grant> grants_;               ///< this cycle's grants
  RingBuffer<Wake> wakes_;  ///< credit returns later than next cycle
  /// First injections later than the next cycle: a min-heap on the
  /// cycle, since PEs start in no particular order.
  std::vector<Wake> starts_;
};

/// Root-to-PEs pipelined multicast with fixed per-level latency.
class BroadcastChannel {
 public:
  /// `latency` = cycles from entry to delivery (levels × hop latency).
  explicit BroadcastChannel(std::size_t latency);

  void send(const Flit& flit);

  /// Advances one cycle; returns the flit delivered to all PEs this
  /// cycle, if any. The owner fans it out to the PE queues (it already
  /// checked receiver backpressure before send()). Inline — one call
  /// per simulated cycle.
  std::optional<Flit> step() {
    ++now_;
    if (head_ < in_flight_.size() &&
        in_flight_[head_].deliver_at <= now_) {
      const Flit f = in_flight_[head_].flit;
      if (++head_ == in_flight_.size()) {  // drained: compact
        in_flight_.clear();
        head_ = 0;
      }
      return f;
    }
    return std::nullopt;
  }

  bool idle() const noexcept { return head_ == in_flight_.size(); }
  std::size_t in_flight() const noexcept {
    return in_flight_.size() - head_;
  }

  /// The cycle step() delivers the oldest in-flight flit (the clock
  /// counts step() and skip() cycles since reset()), or UINT64_MAX
  /// when idle.
  std::uint64_t next_delivery() const noexcept {
    return idle() ? UINT64_MAX : in_flight_[head_].deliver_at;
  }

  /// Advances `k` cycles that deliver nothing — bit-identical to k
  /// step() calls returning nothing. Requires next_delivery() to come
  /// after them.
  void skip(std::uint64_t k) noexcept { now_ += k; }

  /// Drops any in-flight flits and rewinds the clock; the backing
  /// storage (grown to the busiest phase so far) is kept.
  void reset() noexcept {
    in_flight_.clear();
    head_ = 0;
    now_ = 0;
  }

  /// Pre-sizes the in-flight FIFO for a phase that will send at most
  /// `flits` (the simulator knows the exact bound: rank for the V
  /// phase, the nonzero-input count for the W phase), so send() never
  /// reallocates mid-phase — part of the allocation-free steady-state
  /// contract of the arena entry point.
  void reserve(std::size_t flits) { in_flight_.reserve(flits); }

 private:
  struct Timed {
    Flit flit;
    std::uint64_t deliver_at;
  };
  std::size_t latency_;
  std::uint64_t now_ = 0;
  /// FIFO by construction: consumed entries advance head_; the vector
  /// is compacted (capacity kept) whenever it drains, so steady-state
  /// operation never reallocates.
  std::vector<Timed> in_flight_;
  std::size_t head_ = 0;
};

/// Cycles from the cycle a PE injects a flit into an idle H-tree to the
/// cycle every PE receives it back, with the BroadcastChannel built at
/// latency `router_levels` (as the simulator builds it). Up: the leaf
/// router forwards in the injection cycle, then one level per cycle,
/// so the flit leaves the root levels − 1 cycles later. Down: send()
/// stamps the channel clock before step() advances it, so delivery
/// comes levels − 1 cycles after the root's cycle. The analytic engine
/// charges this once per phase that moves flits; later flits pipeline
/// behind the first.
inline std::uint64_t htree_flight_cycles(const ArchParams& params) noexcept {
  const std::uint64_t up = params.router_levels - 1;
  const std::uint64_t down = params.router_levels - 1;
  return up + down;
}

}  // namespace sparsenn
