#include "cluster/concurrency.h"

#include <algorithm>

namespace nela::cluster {

ClaimCoordinator::ClaimCoordinator(uint32_t user_count)
    : holder_(user_count, kNoTicket) {}

Ticket ClaimCoordinator::OpenRequest() {
  util::MutexLock lock(mu_);
  const Ticket ticket = next_ticket_++;
  if (wounded_.size() <= ticket) wounded_.resize(ticket + 1, 0);
  return ticket;
}

Ticket ClaimCoordinator::OpenRequestAt(Ticket ticket) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  if (next_ticket_ <= ticket) next_ticket_ = ticket + 1;
  if (wounded_.size() <= ticket) wounded_.resize(ticket + 1, 0);
  return ticket;
}

bool ClaimCoordinator::TryClaim(Ticket ticket,
                                const std::vector<graph::VertexId>& members) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  // Pass 1: inspect every contended member. An older holder anywhere means
  // the whole claim fails; younger holders will be wounded.
  std::vector<Ticket> to_wound;
  for (graph::VertexId v : members) {
    NELA_CHECK_LT(v, holder_.size());
    const Ticket holder = holder_[v];
    if (holder == kNoTicket || holder == ticket) continue;
    ++conflicts_;
    if (holder < ticket) return false;  // older wins; we retry
    to_wound.push_back(holder);
  }
  // Pass 2: wound every younger holder (revoke all their claims).
  std::sort(to_wound.begin(), to_wound.end());
  to_wound.erase(std::unique(to_wound.begin(), to_wound.end()),
                 to_wound.end());
  for (Ticket victim : to_wound) {
    ++wounds_;
    wounded_[victim] = 1;
    DropClaimsLocked(victim);
  }
  // Pass 3: take everything, recording each newly held vertex once.
  std::vector<graph::VertexId>* held = nullptr;
  for (graph::VertexId v : members) {
    if (holder_[v] == ticket) continue;
    holder_[v] = ticket;
    if (held == nullptr) held = &held_[ticket];
    held->push_back(v);
  }
  return true;
}

bool ClaimCoordinator::WasWounded(Ticket ticket) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  if (ticket >= wounded_.size() || !wounded_[ticket]) return false;
  wounded_[ticket] = 0;
  return true;
}

void ClaimCoordinator::Release(Ticket ticket) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  DropClaimsLocked(ticket);
}

void ClaimCoordinator::DropClaimsLocked(Ticket ticket) {
  const auto it = held_.find(ticket);
  if (it == held_.end()) return;
  // A vertex leaves a ticket's hold only through this function, so every
  // listed vertex is still held by `ticket`.
  for (graph::VertexId v : it->second) {
    NELA_CHECK_EQ(holder_[v], ticket);
    holder_[v] = kNoTicket;
  }
  held_.erase(it);
}

Ticket ClaimCoordinator::HolderOf(graph::VertexId v) const {
  // Lock before the bounds check: holder_ never grows, but the read of
  // its size is guarded state like any other (pre-annotation code checked
  // it before taking the lock -- benign, yet formally racy).
  util::MutexLock lock(mu_);
  NELA_CHECK_LT(v, holder_.size());
  return holder_[v];
}

}  // namespace nela::cluster
