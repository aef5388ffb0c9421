// Concurrency control for simultaneous cloaking requests (the paper's §VII
// future work: "a single user can only join one cluster but can participate
// in the clustering process of multiple host users; our protocols must
// prevent deadlocks while making the best clustering decision").
//
// Model: every clustering request must atomically claim the set of users it
// intends to cluster. Requests that overlap contend; the coordinator grants
// claims with two guarantees:
//
//  * safety -- a user is never part of two committed clusters (reciprocity
//    survives concurrency);
//  * liveness -- contention cannot deadlock: claims are acquired in one
//    atomic all-or-nothing step, and losers abort-and-retry with a
//    deterministic priority (older ticket wins), so some request always
//    commits (wound-wait style, no circular waiting is even possible).
//
// The coordinator is deliberately decoupled from the clustering algorithms:
// phase 1 computes a candidate membership from a registry snapshot, then
// commits it through the coordinator; a conflict means another host claimed
// an overlapping set first, and the request recomputes against the fresh
// registry state. sim::ShardedServiceDriver drives that loop on real
// worker threads, one coordinator per spatial shard.

#ifndef NELA_CLUSTER_CONCURRENCY_H_
#define NELA_CLUSTER_CONCURRENCY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/registry.h"
#include "graph/wpg.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::cluster {

// Ticket identifying one in-flight cloaking request; lower = older = higher
// priority.
using Ticket = uint64_t;
inline constexpr Ticket kNoTicket = 0;

// Thread safety: every operation is atomic under an internal mutex, so
// genuinely parallel requests (sim::ShardedServiceDriver worker threads)
// and the single-request pipeline (core::ClaimCommitStage) share the same
// coordinator code.
class ClaimCoordinator {
 public:
  explicit ClaimCoordinator(uint32_t user_count);

  ClaimCoordinator(const ClaimCoordinator&) = delete;
  ClaimCoordinator& operator=(const ClaimCoordinator&) = delete;

  // Registers a new request and returns its ticket (monotonically
  // increasing; older tickets win conflicts).
  Ticket OpenRequest() EXCLUDES(mu_);

  // Registers a request under an explicit, caller-assigned ticket. The
  // sharded service runs one coordinator per shard but needs a GLOBAL
  // wound-wait priority (the request's admission rank), so every involved
  // shard's coordinator must see the same ticket for the same request.
  // Tickets assigned this way must be unique per coordinator and nonzero;
  // auto-assigned tickets from OpenRequest() continue above the highest
  // explicit one.
  Ticket OpenRequestAt(Ticket ticket) EXCLUDES(mu_);

  // Attempts to claim every user in `members` for `ticket`, atomically:
  // either all become held by `ticket`, or nothing changes.
  //
  // Conflict resolution (wound-wait): if some member is held by a YOUNGER
  // ticket, that holder's claims are revoked ("wounded") and the claim
  // succeeds -- the wounded request observes its loss via WasWounded() and
  // must retry. If some member is held by an OLDER ticket, the claim fails
  // and the caller should recompute/retry. Returns true on success.
  bool TryClaim(Ticket ticket, const std::vector<graph::VertexId>& members)
      EXCLUDES(mu_);

  // True when another (older) request revoked this ticket's claims; the
  // wounded request must drop its candidate and retry with a fresh
  // snapshot. Resets the flag.
  bool WasWounded(Ticket ticket) EXCLUDES(mu_);

  // Releases every claim of `ticket` (after commit or abort). O(claims of
  // `ticket`): the vertices come from the ticket's held list, never from a
  // scan of all users. Releasing a ticket that holds nothing is a no-op.
  void Release(Ticket ticket) EXCLUDES(mu_);

  // Holder of user `v`, or kNoTicket.
  Ticket HolderOf(graph::VertexId v) const EXCLUDES(mu_);

  uint64_t conflicts_observed() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return conflicts_;
  }
  uint64_t wounds_inflicted() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return wounds_;
  }

  // Names the coordinator lock for cross-class ordering annotations: the
  // sharded service driver acquires its run lock strictly before any
  // shard's coordinator lock (see sim/sharded_service_driver.cc).
  util::Mutex& mu() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  // Frees every vertex `ticket` holds and forgets its held list (the O(claims)
  // core of Release and of wounding).
  void DropClaimsLocked(Ticket ticket) REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::vector<Ticket> holder_ GUARDED_BY(mu_);
  // Per ticket, the vertices it holds (each listed once), so that release
  // and wounding touch only those. Entries exist only for tickets holding
  // at least one vertex.
  std::unordered_map<Ticket, std::vector<graph::VertexId>> held_
      GUARDED_BY(mu_);
  // Indexed by ticket (grown on demand).
  std::vector<uint8_t> wounded_ GUARDED_BY(mu_);
  Ticket next_ticket_ GUARDED_BY(mu_) = 1;
  uint64_t conflicts_ GUARDED_BY(mu_) = 0;
  uint64_t wounds_ GUARDED_BY(mu_) = 0;
};

}  // namespace nela::cluster

#endif  // NELA_CLUSTER_CONCURRENCY_H_
