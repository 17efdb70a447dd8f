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
//     ACC stage combines per-row partial sums.
//
// The root-to-PE direction is a contention-free pipelined multicast
// (BroadcastChannel): one flit per cycle enters, and after a fixed
// latency (one pipeline hop per level) it is delivered to every PE —
// subject to the receivers' queue backpressure, which the owner
// expresses through the `ready` argument.
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
  /// Inline with precomputed parent links — the cycle loop asks for
  /// every pending injector every cycle, and a runtime divide per
  /// lookup costs more than the credit check itself.
  bool can_inject(std::size_t pe) const {
    expects(pe < num_pes_, "PE id out of range");
    return levels_.front()[parent_idx_[0][pe]].can_accept(
        parent_port_[0][pe]);
  }
  /// Injects a flit from PE `pe`. Precondition: can_inject(pe).
  void inject(std::size_t pe, const Flit& flit) {
    expects(pe < num_pes_, "PE id out of range");
    levels_.front()[parent_idx_[0][pe]].push(parent_port_[0][pe], flit);
    ++buffered_total_;
  }

  /// Declares that PE `pe` will send nothing more this phase (used by
  /// the ACC reduction to terminate cleanly).
  void close_injector(std::size_t pe);

  /// Advances one cycle. `root_ready` tells whether the consumer of the
  /// root output can take a flit. Returns the flit leaving the root.
  std::optional<Flit> step(bool root_ready);

  /// True when no flit is buffered anywhere in the tree. O(1): the
  /// total is re-derived from the routers' maintained counts inside
  /// step()'s existing commit pass.
  bool idle() const noexcept { return buffered_total_ == 0; }

  /// True when the last step() was a pure wait cycle: no router made an
  /// output decision (not even one cancelled by a closed parent credit
  /// window — a cancelled decision still charges a credit stall) and
  /// no closure flag was newly propagated. Because
  /// router decisions are pure functions of buffer/closure/credit
  /// state, a quiet step with frozen inputs proves every following
  /// cycle is quiet too until an injection or credit expiry changes the
  /// state — the event core's wait-skip window rests on this.
  bool last_step_quiet() const noexcept { return last_step_quiet_; }

  /// True when no credit anywhere in the tree is still travelling back
  /// to a child (trivially true for the buffered latency-1 default).
  bool credits_quiet() const;

  /// Advances `k` pure wait cycles verified by last_step_quiet() plus
  /// frozen inputs (no injections, quiet credits): bit-identical to k
  /// step(·) calls in that state — occupancy sums and router clocks
  /// advance, nothing else changes.
  void skip_waiting(std::uint64_t k);

  /// Advances `k` cycles on a fully-drained tree — bit-identical to k
  /// step(·) calls while idle() (which only tick router clocks and
  /// occupancy denominators). Requires idle().
  void skip_idle(std::uint64_t k);

  /// Empties every router, reopens all injectors and zeroes the phase
  /// statistics — bit-identical to constructing a fresh tree, without
  /// the allocations.
  void reset();

  NocStats stats() const;

  // ---- Event-driven arbitration (the event core's W phase) ----
  //
  // The same kArbitrate tree, stepped only where a flit can move. An
  // empty router, or one whose head flits wait on a closed parent
  // credit window, repeats the same decision every cycle, so it is not
  // visited: its clock (Router::clock) marks the cycle its counters
  // are settled to, and Router::settle adds the frozen cycles at once
  // when a push, a grant or a returning credit next changes it (or its
  // parent's port is read), and at phase end. A cycle steps only the
  // routers that may grant — those that granted, took a flit or had a
  // parent credit return since the last cycle, and the root while its
  // consumer is ready — and offers injection only to PEs whose leaf
  // port has room; a full port is offered again when the credit of
  // its next grant returns. Bit-identical to inject() and step() on
  // every cycle; tests/event_core_test.cpp pins it.
  //
  // One phase: reset(); add_injector() for every PE holding flits;
  // then for t = next_cycle(·) (cycle 1 first, or any later cycle the
  // caller has work in), until it returns kNoCycle and the caller has
  // none: begin_cycle(t), inject_lazy() for PEs it offers, then
  // step_lazy(); finally settle(the phase's last cycle).

  /// next_cycle()'s answer when the tree has nothing scheduled.
  static constexpr std::uint64_t kNoCycle = UINT64_MAX;

  /// PE `pe` holds flits to inject: it is offered injection at cycle 1.
  void add_injector(std::size_t pe);

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
  /// may inject, else the next credit return, else kNoCycle.
  std::uint64_t next_cycle(bool root_ready) const;

  /// Brings every router's counters up to `cycle` (phase end).
  void settle(std::uint64_t cycle);

 private:
  Router& root() noexcept { return levels_.back().front(); }
  const Router& root() const noexcept { return levels_.back().front(); }

  /// Flat router ids, leaves first, level by level up to the root.
  Router& router(std::uint32_t id) noexcept {
    const std::uint32_t lvl = level_of_[id];
    return levels_[lvl][id - level_base_[lvl]];
  }
  std::uint32_t root_id() const noexcept {
    return static_cast<std::uint32_t>(level_of_.size() - 1);
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
  /// levels_[0] are the leaf routers; levels_.back() is {root}.
  std::vector<std::vector<Router>> levels_;
  /// Per-level output decisions, reused every cycle by step().
  std::vector<std::vector<std::optional<Flit>>> outputs_scratch_;
  /// Precomputed upward links: parent_idx_[0][pe] is the leaf router
  /// of PE `pe` (parent_port_[0][pe] its port); parent_idx_[lvl+1][i]
  /// is the level-(lvl+1) router fed by router i of level lvl. Replaces
  /// the divide/modulo pair in every per-cycle parent lookup.
  std::vector<std::vector<std::uint32_t>> parent_idx_;
  std::vector<std::vector<std::uint32_t>> parent_port_;
  std::size_t buffered_total_ = 0;  ///< flits sitting in any router
  /// Whether the previous step() was a pure wait cycle (no decisions,
  /// no closure change). Starts (and resets) false — conservative: the
  /// first cycle after any reset must execute for real.
  bool last_step_quiet_ = false;

  // ---- event-driven arbitration state (reset() clears it) ----
  struct Grant {
    std::uint32_t router;  ///< flat id
    std::uint32_t port;    ///< input port it granted
    Flit flit;
  };
  /// A credit returning to a child: the router `target`, or the PE
  /// `target & ~kPeTarget` when kPeTarget is set.
  struct Wake {
    std::uint64_t cycle;
    std::uint32_t target;
  };
  static constexpr std::uint32_t kPeTarget = 1u << 31;

  std::vector<std::uint32_t> level_base_;  ///< first flat id per level
  std::vector<std::uint32_t> level_of_;    ///< level per flat id
  std::vector<std::uint32_t> parent_of_;   ///< parent's flat id
  std::vector<std::uint32_t> port_of_;     ///< port in the parent
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
  std::vector<std::uint32_t> injected_;     ///< PEs that injected now
  std::vector<std::uint32_t> touched_;      ///< routers stepped now
  std::vector<Grant> grants_;               ///< this cycle's grants
  RingBuffer<Wake> wakes_;  ///< credit returns later than next cycle
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
