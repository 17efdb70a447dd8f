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

}  // namespace

UpwardTree::UpwardTree(const ArchParams& params, RouterMode mode)
    : radix_(params.router_radix), num_pes_(params.num_pes) {
  params.validate();
  const std::size_t depth = buffer_depth_for(params);
  const std::size_t credit = credit_latency_for(params);

  // Build tiers until a single root remains: 64 PEs → 16 → 4 → 1.
  std::size_t routers = num_pes_ / radix_;
  for (;;) {
    std::vector<Router> tier;
    tier.reserve(routers);
    for (std::size_t i = 0; i < routers; ++i)
      tier.emplace_back(radix_, depth, credit, mode);
    levels_.push_back(std::move(tier));
    if (routers == 1) break;
    ensures(routers % radix_ == 0, "router tier does not tile");
    routers /= radix_;
  }

  outputs_scratch_.resize(levels_.size());
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl)
    outputs_scratch_[lvl].resize(levels_[lvl].size());

  // Flat router ids for the event-driven arbitration, leaves first,
  // each with its parent's flat id and port (the root's are unused).
  std::uint32_t base = 0;
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    const auto next_base =
        static_cast<std::uint32_t>(base + levels_[lvl].size());
    level_base_.push_back(base);
    for (std::size_t i = 0; i < levels_[lvl].size(); ++i) {
      level_of_.push_back(static_cast<std::uint32_t>(lvl));
      parent_of_.push_back(next_base + static_cast<std::uint32_t>(i / radix_));
      port_of_.push_back(static_cast<std::uint32_t>(i % radix_));
    }
    base = next_base;
  }
  const std::size_t num_routers = level_of_.size();
  credit_delay_ = std::max<std::uint64_t>(1, credit);
  listed_at_.assign(num_routers, 0);
  touched_at_.assign(num_routers, 0);
  offered_at_.assign(num_pes_, 0);
  injecting_.assign(num_pes_, 0);
  for (auto* list : {&due_, &due_next_, &touched_})
    list->reserve(num_routers);
  for (auto* list : {&offers_, &offers_next_, &injected_})
    list->reserve(num_pes_);
  grants_.reserve(num_routers);
  // Each grant schedules one credit return credit_delay_ cycles on, and
  // a router grants at most once a cycle, so this many are ever
  // pending; a one-cycle return needs no queue.
  wakes_.assign_capacity(credit_delay_ > 1 ? credit_delay_ * num_routers
                                           : 0);

  // Precompute every child → parent link (see the member comment):
  // entry lvl maps the children feeding level lvl (PEs for level 0).
  parent_idx_.resize(levels_.size());
  parent_port_.resize(levels_.size());
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    const std::size_t children =
        lvl == 0 ? num_pes_ : levels_[lvl - 1].size();
    parent_idx_[lvl].resize(children);
    parent_port_[lvl].resize(children);
    for (std::size_t i = 0; i < children; ++i) {
      parent_idx_[lvl][i] = static_cast<std::uint32_t>(i / radix_);
      parent_port_[lvl][i] = static_cast<std::uint32_t>(i % radix_);
    }
  }
}

void UpwardTree::reset() {
  for (auto& tier : levels_)
    for (Router& router : tier) router.reset();
  for (auto& tier : outputs_scratch_)
    for (auto& out : tier) out.reset();
  buffered_total_ = 0;
  last_step_quiet_ = false;

  cycle_ = 0;
  std::fill(listed_at_.begin(), listed_at_.end(), 0);
  std::fill(touched_at_.begin(), touched_at_.end(), 0);
  std::fill(offered_at_.begin(), offered_at_.end(), 0);
  std::fill(injecting_.begin(), injecting_.end(), 0);
  for (auto* list : {&due_, &due_next_, &offers_, &offers_next_,
                     &injected_, &touched_})
    list->clear();
  grants_.clear();
  wakes_.clear();
}

void UpwardTree::skip_idle(std::uint64_t k) {
  expects(buffered_total_ == 0, "skip_idle on a non-idle tree");
  for (auto& tier : levels_)
    for (Router& router : tier) router.settle(router.clock() + k);
}

bool UpwardTree::credits_quiet() const {
  for (const auto& tier : levels_)
    for (const Router& router : tier)
      if (!router.credits_quiet()) return false;
  return true;
}

void UpwardTree::skip_waiting(std::uint64_t k) {
  for (auto& tier : levels_)
    for (Router& router : tier) router.skip_waiting(k);
}

void UpwardTree::close_injector(std::size_t pe) {
  expects(pe < num_pes_, "PE id out of range");
  levels_.front()[pe / radix_].set_port_closed(pe % radix_, true);
}

std::optional<Flit> UpwardTree::step(bool root_ready) {
  // Two-phase update: every router decides on begin-of-cycle state,
  // then transfers commit, so a hop takes exactly one cycle. The
  // decisions land in scratch buffers preallocated at construction.
  auto& outputs = outputs_scratch_;
  bool decided = false;
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    auto& tier = levels_[lvl];
    const bool is_root = (lvl + 1 == levels_.size());
    for (std::size_t i = 0; i < tier.size(); ++i) {
      // An empty router decides nothing (and charges no statistics in
      // step()); skipping it saves the port scan and the parent credit
      // lookup. Its commit below still ticks the cycle counters.
      if (tier[i].idle()) {
        outputs[lvl][i].reset();
        continue;
      }
      const bool parent_ready =
          is_root ? root_ready
                  : levels_[lvl + 1][parent_idx_[lvl + 1][i]].can_accept(
                        parent_port_[lvl + 1][i]);
      outputs[lvl][i] = tier[i].step(parent_ready);
      decided = decided || tier[i].last_step_decided();
    }
  }

  // Commit transfers into parent buffers.
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    for (std::size_t i = 0; i < levels_[lvl].size(); ++i) {
      if (outputs[lvl][i]) {
        levels_[lvl + 1][parent_idx_[lvl + 1][i]].push(
            parent_port_[lvl + 1][i], *outputs[lvl][i]);
      }
    }
  }

  // In accumulate mode, propagate drained-subtree closure upward so a
  // parent's ACC does not wait for children that will never send. A
  // closure that flips a parent port from open to closed can enable
  // that parent's ACC on the next cycle, so it disqualifies this step
  // from being a pure wait cycle (re-closing an already-closed port is
  // a no-op and stays quiet).
  bool closure_changed = false;
  if (root().mode() == RouterMode::kAccumulate) {
    for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
      for (std::size_t i = 0; i < levels_[lvl].size(); ++i) {
        const Router& child = levels_[lvl][i];
        if (child.idle() && child.all_closed() && !outputs[lvl][i]) {
          Router& parent = levels_[lvl + 1][parent_idx_[lvl + 1][i]];
          const std::uint32_t port = parent_port_[lvl + 1][i];
          if (!parent.port_closed(port)) {
            parent.set_port_closed(port, true);
            closure_changed = true;
          }
        }
      }
    }
  }
  last_step_quiet_ = !decided && !closure_changed;

  // Re-derive the buffered total inside the commit pass; each router's
  // own count is maintained O(1), so idle() stays a single comparison.
  std::size_t buffered = 0;
  for (auto& tier : levels_) {
    for (Router& router : tier) {
      router.commit();
      buffered += router.buffered();
    }
  }
  buffered_total_ = buffered;
  return outputs.back().front();
}

NocStats UpwardTree::stats() const {
  NocStats out;
  double occupancy = 0.0;
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    for (const Router& r : levels_[lvl]) {
      out.flit_hops += r.stats().flits_forwarded;
      out.acc_operations += r.stats().acc_operations;
      out.arbitration_conflicts += r.stats().arbitration_conflicts;
      out.credit_stalls += r.stats().credit_stalls;
      if (lvl == 0) occupancy += r.stats().mean_buffer_occupancy();
    }
  }
  out.mean_leaf_occupancy =
      occupancy / static_cast<double>(levels_.front().size());
  out.root_flits = root().stats().flits_forwarded;
  return out;
}

// ------------------------------------------- event-driven arbitration

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
  Router& r = router(id);
  r.settle(cycle_ - 1);
  if (const auto out = r.step(parent_ready)) {
    grants_.push_back({id, static_cast<std::uint32_t>(*r.granted_port()),
                       *out});
  }
  touched_at_[id] = cycle_;
  touched_.push_back(id);
}

void UpwardTree::add_injector(std::size_t pe) {
  expects(pe < num_pes_, "PE id out of range");
  expects(root().mode() == RouterMode::kArbitrate,
          "event-driven stepping models the arbitrate tree only");
  injecting_[pe] = 1;
  offer_injection(static_cast<std::uint32_t>(pe), cycle_ + 1);
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

  // Keep the PEs that still inject and whose port has a free slot.
  std::size_t kept = 0;
  for (const std::uint32_t pe : offers_) {
    if (!injecting_[pe]) continue;
    Router& leaf = levels_.front()[parent_idx_[0][pe]];
    leaf.settle(t - 1);
    if (leaf.can_accept(parent_port_[0][pe])) offers_[kept++] = pe;
  }
  offers_.resize(kept);
  return offers_;
}

void UpwardTree::inject_lazy(std::size_t pe, const Flit& flit, bool more) {
  inject(pe, flit);
  list_router(level_base_[0] + parent_idx_[0][pe], cycle_);
  injecting_[pe] = more ? 1 : 0;
  if (more) injected_.push_back(static_cast<std::uint32_t>(pe));
}

std::optional<Flit> UpwardTree::step_lazy(bool root_ready) {
  const std::uint64_t t = cycle_;
  grants_.clear();

  // Decide on begin-of-cycle state, like step(): a listed router
  // grants when it holds flits and its parent port has room; one that
  // cannot stays frozen and is settled when something next changes it.
  for (const std::uint32_t id : due_) {
    if (router(id).idle()) continue;
    Router& parent = router(parent_of_[id]);
    parent.settle(t - 1);
    if (parent.can_accept(port_of_[id])) touch(id, true);
  }
  due_.clear();
  if (root_ready && !root().idle()) touch(root_id(), true);

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
    router(parent).push(port_of_[grant.router], grant.flit);
    list_router(parent, t + 1);
  }
  for (const std::uint32_t id : touched_) router(id).commit();
  touched_.clear();
  if (out) --buffered_total_;

  // A PE that injected keeps its offer while its port has room.
  for (const std::uint32_t pe : injected_) {
    Router& leaf = levels_.front()[parent_idx_[0][pe]];
    leaf.settle(t);
    if (leaf.can_accept(parent_port_[0][pe])) offer_injection(pe, t + 1);
  }
  injected_.clear();

  // A router that granted may grant again next cycle, and the slot it
  // freed reaches its child (a router, or a PE that still injects)
  // credit_delay_ cycles from now.
  for (const Grant& grant : grants_) {
    list_router(grant.router, t + 1);
    const std::uint32_t lvl = level_of_[grant.router];
    const std::uint32_t child =
        (grant.router - level_base_[lvl]) * static_cast<std::uint32_t>(radix_) +
        grant.port;  // index in the tier below
    if (lvl > 0) {
      schedule_wake(level_base_[lvl - 1] + child, t + credit_delay_);
    } else if (injecting_[child]) {
      schedule_wake(child | kPeTarget, t + credit_delay_);
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
      (root_ready && !root().idle()))
    return cycle_ + 1;
  return wakes_.empty() ? kNoCycle : wakes_.front().cycle;
}

void UpwardTree::settle(std::uint64_t cycle) {
  for (auto& tier : levels_)
    for (Router& router : tier) router.settle(cycle);
}

BroadcastChannel::BroadcastChannel(std::size_t latency)
    : latency_(latency) {}

void BroadcastChannel::send(const Flit& flit) {
  in_flight_.push_back({flit, now_ + latency_});
}

}  // namespace sparsenn
