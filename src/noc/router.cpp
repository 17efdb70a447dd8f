#include "noc/router.hpp"

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
    p.pending_credits.clear();
  }
  stats_ = RouterStats{};
  now_ = 0;
  buffered_ = 0;
  granted_port_.reset();
  granted_all_ = false;
}

std::optional<Flit> Router::accumulate() {
  // Lock-step reduction: the ACC waits until every port holds a flit.
  // Every child sends each row once, in row order, so the heads then
  // carry the same row; a mismatch means the traffic broke that rule.
  if (!has_output()) return std::nullopt;
  Flit combined;
  combined.index = inputs_.front().buffer.front().index;
  for (const Port& p : inputs_) {
    const Flit& head = p.buffer.front();
    ensures(head.index == combined.index,
            "reduction ports hold different rows");
    combined.payload += head.payload;
    combined.source = head.source;
  }
  granted_all_ = true;
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
    for (Port& p : inputs_) {
      p.buffer.pop_front();
      if (track_credits) p.pending_credits.push_back(now_ + credit_latency_);
    }
    buffered_ -= inputs_.size();
    // A reduction's adds are charged once, when it commits: a decision
    // that a closed parent credit window cancels adds nothing.
    stats_.acc_operations += inputs_.size() - 1;
    ++stats_.flits_forwarded;
    ++stats_.busy_cycles;
  }
  granted_port_.reset();
  granted_all_ = false;
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
  const std::uint64_t k = cycle - now_;
  if (has_output()) {
    // Each frozen cycle re-makes the same decision, and the closed
    // parent credit window cancels it: a credit stall, plus a conflict
    // when more than one port offers a head flit to the arbiter.
    if (mode_ == RouterMode::kArbitrate) {
      std::size_t candidates = 0;
      for (const Port& p : inputs_)
        if (!p.buffer.empty()) ++candidates;
      if (candidates > 1) stats_.arbitration_conflicts += k;
    }
    stats_.credit_stalls += k;
  }
  stats_.buffer_occupancy_sum += buffered_ * k;
  stats_.cycles += k;
  now_ += k;
  if (credit_latency_ > 1) drop_expired_credits();
}

}  // namespace sparsenn
