#include "noc/router.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sparsenn {

Router::Router(std::size_t radix, std::size_t buffer_depth,
               std::size_t credit_latency, RouterMode mode)
    : inputs_(radix),
      buffer_depth_(buffer_depth),
      credit_latency_(credit_latency),
      mode_(mode) {
  expects(radix > 0, "router radix must be positive");
  expects(buffer_depth > 0, "router buffer depth must be positive");
  for (Port& p : inputs_) {
    p.buffer.assign_capacity(buffer_depth_);
    p.pending_credits.reserve(buffer_depth_);
  }
}

void Router::reset() {
  for (Port& p : inputs_) {
    p.buffer.clear();
    p.closed = false;
    p.pending_credits.clear();
  }
  stats_ = RouterStats{};
  now_ = 0;
  buffered_ = 0;
  granted_port_.reset();
  granted_all_ = false;
  granted_row_cache_ = 0;
  last_step_decided_ = true;
}

void Router::set_port_closed(std::size_t port, bool closed) {
  expects(port < inputs_.size(), "router port out of range");
  inputs_[port].closed = closed;
}

std::optional<Flit> Router::accumulate() {
  // Wait until every open port has its head flit; closed ports with
  // drained buffers drop out of the reduction. One pass decides: an
  // empty open port means the ACC waits for the laggard no matter
  // what the other ports hold, and an all-drained router has no data.
  std::uint32_t row = UINT32_MAX;
  bool any_data = false;
  for (const Port& p : inputs_) {
    if (p.buffer.empty()) {
      if (!p.closed) return std::nullopt;  // ragged: wait for laggard
      continue;
    }
    any_data = true;
    row = std::min(row, p.buffer.front().index);
  }
  if (!any_data) return std::nullopt;

  Flit combined;
  combined.index = row;
  for (const Port& p : inputs_) {
    if (!p.buffer.empty() && p.buffer.front().index == row) {
      combined.payload += p.buffer.front().payload;
      combined.source = p.buffer.front().source;
    }
  }
  granted_all_ = true;
  granted_row_cache_ = row;
  return combined;
}

void Router::commit_grant() {
  // Latency-1 credits can never block a sender (see can_accept), so
  // the buffered-credit mode skips tracking them altogether.
  const bool track_credits = credit_latency_ > 1;
  if (granted_port_) {
    Port& p = inputs_[*granted_port_];
    p.buffer.pop_front();
    --buffered_;
    if (track_credits) p.pending_credits.push_back(now_ + credit_latency_);
    ++stats_.flits_forwarded;
    ++stats_.busy_cycles;
  } else if (granted_all_) {
    std::size_t contributors = 0;
    for (Port& p : inputs_) {
      if (!p.buffer.empty() &&
          p.buffer.front().index == granted_row_cache_) {
        p.buffer.pop_front();
        --buffered_;
        if (track_credits)
          p.pending_credits.push_back(now_ + credit_latency_);
        ++contributors;
      }
    }
    // A reduction's adds are charged once, when it commits: a decision
    // that a closed parent credit window cancels adds nothing.
    ensures(contributors > 0, "accumulate fired without contributors");
    stats_.acc_operations += contributors - 1;
    ++stats_.flits_forwarded;
    ++stats_.busy_cycles;
  }
  granted_port_.reset();
  granted_all_ = false;
}

bool Router::all_closed() const {
  for (const Port& p : inputs_)
    if (!p.closed) return false;
  return true;
}

void Router::drop_expired_credits() {
  // k commits starting at clock t erase every stamp <= t+k-1, i.e.
  // every stamp < the advanced now_.
  for (Port& p : inputs_) {
    if (!p.pending_credits.empty()) {
      std::erase_if(p.pending_credits,
                    [this](std::size_t stamp) { return stamp < now_; });
    }
  }
}

void Router::advance_frozen(std::uint64_t cycle) {
  expects(cycle > now_, "settle cannot move a router's clock back");
  expects(mode_ == RouterMode::kArbitrate || buffered_ == 0,
          "settle models the arbitration stall pattern only");
  const std::uint64_t k = cycle - now_;
  if (buffered_ > 0) {
    // Each stalled cycle re-runs the same arbitration: a conflict is
    // charged when more than one port has a head flit, then the grant
    // dies on the closed parent credit window.
    std::size_t candidates = 0;
    for (const Port& p : inputs_)
      if (!p.buffer.empty()) ++candidates;
    if (candidates > 1) stats_.arbitration_conflicts += k;
    stats_.credit_stalls += k;
  }
  stats_.buffer_occupancy_sum += buffered_ * k;
  stats_.cycles += k;
  now_ += k;
  if (credit_latency_ > 1) drop_expired_credits();
}

void Router::skip_waiting(std::uint64_t k) {
  stats_.buffer_occupancy_sum += buffered_ * k;
  stats_.cycles += k;
  now_ += k;
  drop_expired_credits();
}

bool Router::credits_quiet() const noexcept {
  // Latency-1 credits are never tracked (see can_accept), so the
  // buffered flow-control default answers without touching the ports —
  // the event core's wait-skip check asks every router every cycle.
  if (credit_latency_ <= 1) return true;
  for (const Port& p : inputs_)
    for (const std::size_t stamp : p.pending_credits)
      if (stamp > now_) return false;
  return true;
}

}  // namespace sparsenn
