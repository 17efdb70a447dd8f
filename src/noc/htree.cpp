#include "noc/htree.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sparsenn {
namespace {

std::size_t credit_latency_for(const ArchParams& params) {
  // Buffered credit flow control returns credits in one cycle; the
  // unbuffered ablation waits a full router-pipeline round trip with a
  // single slot, which is what serialises the transfers.
  return params.flow_control == FlowControl::kPacketBufferCredit
             ? 1
             : params.router_pipeline_stages;
}

std::size_t buffer_depth_for(const ArchParams& params) {
  return params.flow_control == FlowControl::kPacketBufferCredit
             ? params.router_buffer_depth
             : 1;
}

/// Heap order for UpwardTree::starts_: the earliest cycle on top.
constexpr auto later = [](const auto& a, const auto& b) {
  return a.cycle > b.cycle;
};

}  // namespace

UpwardTree::UpwardTree(const ArchParams& params, RouterMode mode)
    : radix_(params.router_radix), num_pes_(params.num_pes) {
  params.validate();
  num_leaves_ = static_cast<std::uint32_t>(num_pes_ / radix_);
  const std::size_t depth = buffer_depth_for(params);
  const std::size_t credit = credit_latency_for(params);
  const auto radix = static_cast<std::uint32_t>(radix_);

  // Build tiers until a single root remains: 64 PEs → 16 → 4 → 1. Each
  // router links to its parent in the next tier and to its first child
  // in the tier below (the PEs for the leaves).
  routers_.reserve(params.total_routers());
  std::uint32_t base = 0;        // first id of this tier
  std::uint32_t child_base = 0;  // first id of the tier below
  for (std::uint32_t tier = num_leaves_;; tier /= radix) {
    const std::uint32_t next_base = base + tier;
    for (std::uint32_t i = 0; i < tier; ++i) {
      routers_.emplace_back(radix_, depth, credit, mode);
      parent_of_.push_back(next_base + i / radix);
      port_of_.push_back(i % radix);
      first_child_.push_back(child_base + i * radix);
    }
    if (tier == 1) break;
    ensures(tier % radix == 0, "router tier does not tile");
    child_base = base;
    base = next_base;
  }
  for (std::uint32_t pe = 0; pe < num_pes_; ++pe) {
    leaf_of_.push_back(pe / radix);
    leaf_port_.push_back(pe % radix);
  }
  outputs_.resize(routers_.size());

  const std::size_t num_routers = routers_.size();
  credit_delay_ = std::max<std::uint64_t>(1, credit);
  listed_at_.assign(num_routers, 0);
  touched_at_.assign(num_routers, 0);
  offered_at_.assign(num_pes_, 0);
  injecting_.assign(num_pes_, 0);
  for (auto* list : {&due_, &due_next_, &touched_})
    list->reserve(num_routers);
  for (auto* list : {&offers_, &offers_next_}) list->reserve(num_pes_);
  grants_.reserve(num_routers);
  starts_.reserve(num_pes_);
  // A grant schedules a credit return credit_delay_ cycles on for each
  // child it popped, and a router grants at most once a cycle, so each
  // child has at most credit_delay_ pending; a one-cycle return needs
  // no queue.
  wakes_.assign_capacity(
      credit_delay_ > 1 ? credit_delay_ * (num_routers + num_pes_) : 0);
}

void UpwardTree::reset() {
  for (Router& router : routers_) router.reset();
  for (auto& out : outputs_) out.reset();
  buffered_total_ = 0;

  cycle_ = 0;
  std::fill(listed_at_.begin(), listed_at_.end(), 0);
  std::fill(touched_at_.begin(), touched_at_.end(), 0);
  std::fill(offered_at_.begin(), offered_at_.end(), 0);
  std::fill(injecting_.begin(), injecting_.end(), 0);
  for (auto* list : {&due_, &due_next_, &offers_, &offers_next_, &touched_})
    list->clear();
  grants_.clear();
  wakes_.clear();
  starts_.clear();
}

std::optional<Flit> UpwardTree::step(bool root_ready) {
  // Two-phase update: every router decides on begin-of-cycle state,
  // then transfers commit, so a hop takes exactly one cycle. Each pass
  // walks the ids upward, tier by tier from the leaves.
  const std::uint32_t root = root_id();
  for (std::uint32_t id = 0; id <= root; ++id) {
    Router& router = routers_[id];
    // An empty router decides nothing (and charges no statistics in
    // step()); skipping it saves the port scan and the parent credit
    // lookup. Its commit below still ticks the cycle counters.
    if (router.idle()) {
      outputs_[id].reset();
      continue;
    }
    const bool parent_ready =
        id == root ? root_ready
                   : routers_[parent_of_[id]].can_accept(port_of_[id]);
    outputs_[id] = router.step(parent_ready);
  }

  // Commit transfers into parent buffers.
  for (std::uint32_t id = 0; id < root; ++id) {
    if (outputs_[id])
      routers_[parent_of_[id]].push(port_of_[id], *outputs_[id]);
  }

  // Re-derive the buffered total inside the commit pass; each router's
  // own count is maintained O(1), so idle() stays a single comparison.
  std::size_t buffered = 0;
  for (Router& router : routers_) {
    router.commit();
    buffered += router.buffered();
  }
  buffered_total_ = buffered;
  return outputs_[root];
}

NocStats UpwardTree::stats() const {
  NocStats out;
  double occupancy = 0.0;
  for (std::uint32_t id = 0; id < routers_.size(); ++id) {
    const RouterStats& r = routers_[id].stats();
    out.flit_hops += r.flits_forwarded;
    out.acc_operations += r.acc_operations;
    out.arbitration_conflicts += r.arbitration_conflicts;
    out.credit_stalls += r.credit_stalls;
    if (id < num_leaves_) occupancy += r.mean_buffer_occupancy();
  }
  out.mean_leaf_occupancy = occupancy / static_cast<double>(num_leaves_);
  out.root_flits = root().stats().flits_forwarded;
  return out;
}

// ---------------------------------------------- event-driven stepping

void UpwardTree::list_router(std::uint32_t id, std::uint64_t cycle) {
  if (id == root_id() || listed_at_[id] == cycle) return;
  listed_at_[id] = cycle;
  (cycle == cycle_ ? due_ : due_next_).push_back(id);
}

void UpwardTree::offer_injection(std::uint32_t pe, std::uint64_t cycle) {
  if (offered_at_[pe] == cycle) return;
  offered_at_[pe] = cycle;
  (cycle == cycle_ ? offers_ : offers_next_).push_back(pe);
}

void UpwardTree::touch(std::uint32_t id, bool parent_ready) {
  Router& r = routers_[id];
  r.settle(cycle_ - 1);
  if (const auto out = r.step(parent_ready)) {
    const std::optional<std::size_t> port = r.granted_port();
    grants_.push_back(
        {id, port ? static_cast<std::uint32_t>(*port) : kEveryPort, *out});
  }
  touched_at_[id] = cycle_;
  touched_.push_back(id);
}

void UpwardTree::add_injector(std::size_t pe, std::uint64_t first) {
  expects(pe < num_pes_, "PE id out of range");
  expects(first > cycle_, "an injector cannot start in the past");
  injecting_[pe] = 1;
  const auto id = static_cast<std::uint32_t>(pe);
  if (first == cycle_ + 1) {
    offer_injection(id, first);
  } else {
    starts_.push_back({first, id | kPeTarget});
    std::push_heap(starts_.begin(), starts_.end(), later);
  }
}

std::span<const std::uint32_t> UpwardTree::begin_cycle(std::uint64_t t) {
  expects(t > cycle_ && (t == cycle_ + 1 ||
                         (due_next_.empty() && offers_next_.empty())),
          "begin_cycle skipped a cycle with work");
  cycle_ = t;
  due_.swap(due_next_);
  due_next_.clear();
  offers_.swap(offers_next_);
  offers_next_.clear();
  for (; !wakes_.empty() && wakes_.front().cycle == t; wakes_.pop_front())
    schedule_wake(wakes_.front().target, t);
  expects(wakes_.empty() || wakes_.front().cycle > t,
          "begin_cycle skipped a credit return");
  for (; !starts_.empty() && starts_.front().cycle == t; starts_.pop_back()) {
    schedule_wake(starts_.front().target, t);
    std::pop_heap(starts_.begin(), starts_.end(), later);
  }
  expects(starts_.empty() || starts_.front().cycle > t,
          "begin_cycle skipped a first injection");

  // Keep the PEs that still inject and whose port has a free slot.
  std::size_t kept = 0;
  for (const std::uint32_t pe : offers_) {
    if (!injecting_[pe]) continue;
    Router& leaf = routers_[leaf_of_[pe]];
    leaf.settle(t - 1);
    if (leaf.can_accept(leaf_port_[pe])) offers_[kept++] = pe;
  }
  offers_.resize(kept);
  return offers_;
}

void UpwardTree::inject_lazy(std::size_t pe, const Flit& flit, bool more) {
  inject(pe, flit);
  const std::uint32_t leaf = leaf_of_[pe];
  list_router(leaf, cycle_);
  injecting_[pe] = more ? 1 : 0;
  // The PE keeps its offer while its port has room. Only this cycle's
  // grant can add room before the next cycle, and the credit that
  // grant returns offers the PE again.
  if (more && routers_[leaf].can_accept(leaf_port_[pe]))
    offer_injection(static_cast<std::uint32_t>(pe), cycle_ + 1);
}

std::optional<Flit> UpwardTree::step_lazy(bool root_ready) {
  const std::uint64_t t = cycle_;
  grants_.clear();

  // Decide on begin-of-cycle state, like step(): a listed router
  // grants when it has an output decision and its parent port has
  // room; one that cannot stays frozen and is settled when something
  // next changes it.
  for (const std::uint32_t id : due_) {
    if (!routers_[id].has_output()) continue;
    Router& parent = routers_[parent_of_[id]];
    parent.settle(t - 1);
    if (parent.can_accept(port_of_[id])) touch(id, true);
  }
  due_.clear();
  if (root_ready && root().has_output()) touch(root_id(), true);

  // Commit transfers into parent buffers. A parent that made no grant
  // this cycle still makes its (frozen) decision on the state before
  // the push, as step() would; that decision never grants.
  std::optional<Flit> out;
  for (const Grant& grant : grants_) {
    if (grant.router == root_id()) {
      out = grant.flit;
      continue;
    }
    const std::uint32_t parent = parent_of_[grant.router];
    if (touched_at_[parent] != t) touch(parent, false);
    routers_[parent].push(port_of_[grant.router], grant.flit);
    ++buffered_total_;
    list_router(parent, t + 1);
  }
  for (const std::uint32_t id : touched_) {
    Router& r = routers_[id];
    buffered_total_ -= r.buffered();  // a reduction retires several
    r.commit();
    buffered_total_ += r.buffered();
  }
  touched_.clear();

  // A router that granted may grant again next cycle, and each slot it
  // freed reaches its child (a router, or a PE that still injects)
  // credit_delay_ cycles from now. A reduction frees a slot in every
  // port, so it wakes every child; one with nothing to do is skipped.
  for (const Grant& grant : grants_) {
    list_router(grant.router, t + 1);
    const bool every = grant.port == kEveryPort;
    const std::uint32_t first = every ? 0 : grant.port;
    const std::uint32_t end =
        every ? static_cast<std::uint32_t>(radix_) : grant.port + 1;
    for (std::uint32_t port = first; port < end; ++port) {
      const std::uint32_t child = first_child_[grant.router] + port;
      if (grant.router >= num_leaves_) {
        schedule_wake(child, t + credit_delay_);
      } else if (injecting_[child]) {
        schedule_wake(child | kPeTarget, t + credit_delay_);
      }
    }
  }
  return out;
}

void UpwardTree::schedule_wake(std::uint32_t target, std::uint64_t cycle) {
  if (cycle > cycle_ + 1) {
    ensures(!wakes_.full(), "credit return queue overflow");
    wakes_.push_back({cycle, target});
  } else if (target & kPeTarget) {
    offer_injection(target & ~kPeTarget, cycle);
  } else {
    list_router(target, cycle);
  }
}

std::uint64_t UpwardTree::next_cycle(bool root_ready) const {
  if (!due_next_.empty() || !offers_next_.empty() ||
      (root_ready && root().has_output()))
    return cycle_ + 1;
  return std::min(wakes_.empty() ? kNoCycle : wakes_.front().cycle,
                  starts_.empty() ? kNoCycle : starts_.front().cycle);
}

void UpwardTree::settle(std::uint64_t cycle) {
  for (Router& router : routers_) router.settle(cycle);
}

BroadcastChannel::BroadcastChannel(std::size_t latency)
    : latency_(latency) {}

void BroadcastChannel::send(const Flit& flit) {
  in_flight_.push_back({flit, now_ + latency_});
}

}  // namespace sparsenn
