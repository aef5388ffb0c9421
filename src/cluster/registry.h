// Cluster registry: the authoritative record of which users are clustered
// together and which cloaked region each cluster uses.
//
// Location k-anonymity requires the *reciprocity property* (§IV): every user
// of a cluster maps to the same cluster. The registry enforces it by
// construction -- a user belongs to at most one cluster, membership is
// immutable once registered, and the region is stored per cluster, so
// S(v) = S(u) for all members.

#ifndef NELA_CLUSTER_REGISTRY_H_
#define NELA_CLUSTER_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "geo/rect.h"
#include "graph/wpg.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::cluster {

using ClusterId = uint32_t;
inline constexpr ClusterId kNoCluster = 0xffffffffu;

struct ClusterInfo {
  std::vector<graph::VertexId> members;  // sorted ascending
  // Smallest t for which the members form one t-connectivity class (0 for
  // singletons; the MEW objective the algorithms minimize).
  double connectivity = 0.0;
  // False when the cluster could not reach size k (host's whole remaining
  // component was smaller) -- anonymity is degraded and callers must know.
  bool valid = true;
  // The shared cloaked region, set after phase 2 runs once for the cluster.
  std::optional<geo::Rect> region;
};

// Thread safety: mutations (Register, SetRegion) and every accessor except
// active() are serialized on an internal mutex, so concurrent requests
// (sim::ShardedServiceDriver workers) may share a registry. Clusters live
// in a deque, which keeps info() references stable across later Register
// calls -- membership is immutable once registered, so reading a committed
// cluster's members never races (the region field is published under the
// mutex and must be read through `info(id).region` only after a reuse
// decision made under external coordination, e.g. the service driver's
// commit turnstile).
// active() returns a reference into live state and is only safe while no
// concurrent Register runs; speculative concurrent runs work on a
// Snapshot() view instead, which owns its own copy of the mask.
//
// A registry is either live (the authoritative store: every cluster plus
// a dense user -> cluster map) or a speculation view made by Snapshot()
// (the active mask, the counters, and only the clusters registered on the
// view itself). See Snapshot() for what a view can answer.
class Registry {
 public:
  // `allow_overlap` relaxes the uniqueness invariant for baseline studies:
  // a user may then appear in several clusters (ClusterOf reports the most
  // recent). The paper's kNN experiment needs this -- its requests always
  // form a fresh k-cluster, so a previously consumed requester ends up in
  // two clusters, which is exactly the reciprocity violation the paper
  // criticizes. Production cloaking must use the default (strict) mode.
  explicit Registry(uint32_t user_count, bool allow_overlap = false);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Immutable after construction, so readable without the lock. (Before
  // the capability annotations this read cluster_of_.size() unlocked --
  // benign on every implementation we ship on, but formally a race the
  // analysis rejects; the dedicated const member makes the no-lock read
  // provably safe. See DESIGN.md, "Compile-time adversary".)
  uint32_t user_count() const { return user_count_; }
  // On a view: the live count at the snapshot plus the view's own
  // registrations (ids are shared with the live registry's numbering).
  uint32_t cluster_count() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return first_id_ + static_cast<uint32_t>(clusters_.size());
  }
  uint32_t clustered_user_count() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return clustered_users_;
  }

  // Reads the active mask, so it is answered exactly on a view too.
  bool IsClustered(graph::VertexId v) const EXCLUDES(mu_) {
    // Bounds check against the immutable count: the pre-annotation code
    // read cluster_of_.size() here before taking the lock.
    NELA_CHECK_LT(v, user_count_);
    util::MutexLock lock(mu_);
    return !active_[v];
  }

  // kNoCluster when v is not yet clustered. On a view, CHECK-fails for a
  // user clustered before the snapshot (the view does not copy the map).
  ClusterId ClusterOf(graph::VertexId v) const EXCLUDES(mu_);

  // On a view, only clusters registered on the view itself are readable;
  // a pre-snapshot id CHECK-fails.
  const ClusterInfo& info(ClusterId id) const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return clusters_[LocalIndexLocked(id)];
  }

  // Race-free by-value read of a cluster's region, for readers that cannot
  // rely on external coordination against a concurrent SetRegion.
  std::optional<geo::Rect> RegionOf(ClusterId id) const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return clusters_[LocalIndexLocked(id)].region;
  }

  // Registers a new cluster. Fails when `members` is empty or any member is
  // already clustered (that would break reciprocity).
  [[nodiscard]] util::Result<ClusterId> Register(
      std::vector<graph::VertexId> members, double connectivity, bool valid)
      EXCLUDES(mu_);

  // Stores the cloaked region computed by phase 2. May be set exactly once.
  // On a view, only for clusters registered on the view.
  void SetRegion(ClusterId id, const geo::Rect& region) EXCLUDES(mu_);

  // active()[v] is true while v is unclustered -- the "remaining WPG" mask
  // the distributed algorithms operate on. Single-writer only; see the
  // class comment. A view's mask is its own copy, so clustering on a view
  // may read it freely.
  const std::vector<bool>& active() const { return active_; }

  // Membership version: bumped by every Register (not by SetRegion; on a
  // view, by the view's own registrations only).
  // Speculative executions validate their snapshot against it before
  // committing -- an unchanged version proves the membership state they
  // computed from is still the authoritative one.
  uint64_t version() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return version_;
  }

  // A speculation view of this (live) registry, taken atomically with the
  // returned version. The view copies only the N-bit active mask, the
  // clustered-user count and the version -- O(N/8) bytes, no cluster and
  // no member list -- and numbers its own registrations from the live
  // cluster_count() on. It answers IsClustered and reciprocity for every
  // user exactly, Register (into a private delta), and cluster_count,
  // ClusterOf, info, RegionOf and SetRegion for its own clusters; asking
  // it about a cluster registered before the snapshot CHECK-fails. The
  // view is private to the caller and safe to mutate off-thread; nothing
  // it does reaches the live registry. Only a live registry can be
  // snapshotted.
  std::unique_ptr<Registry> Snapshot(uint64_t* version_out = nullptr) const
      EXCLUDES(mu_);

  // Order- and bit-exact FNV-1a fingerprint of the full registry state
  // (per cluster: member count, members, validity, then the region's four
  // coordinate bit patterns or a fixed no-region sentinel). Two registries
  // with equal digests went through the same committed history -- this is
  // the equality the determinism tests and crash-recovery replay assert.
  // Taken atomically under the registry mutex. Live registries only.
  uint64_t Digest() const EXCLUDES(mu_);

  // Names the registry lock so other classes can order their own locks
  // against it (durability::ShardedDurableRegistry declares
  // ACQUIRED_BEFORE relations through this accessor).
  util::Mutex& mu() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  // The view constructor behind Snapshot(); `live` is locked by the caller.
  Registry(const Registry& live, ClusterId first_id);

  // Index into clusters_ of cluster `id`; CHECK-fails for an id this
  // registry does not hold (out of range, or pre-snapshot on a view).
  size_t LocalIndexLocked(ClusterId id) const REQUIRES(mu_) {
    NELA_CHECK_GE(id, first_id_);
    NELA_CHECK_LT(id - first_id_, clusters_.size());
    return id - first_id_;
  }

  bool allow_overlap_;
  const uint32_t user_count_;
  // Views only: the first id this registry holds. clusters_[i] is cluster
  // first_id_ + i; 0 on a live registry, which holds every cluster.
  const ClusterId first_id_ = 0;
  const bool view_ = false;
  mutable util::Mutex mu_;
  // Live registries only (empty on a view, whose ClusterOf searches its
  // own few clusters instead).
  std::vector<ClusterId> cluster_of_ GUARDED_BY(mu_);
  // Deliberately unguarded: active() hands out a reference under the
  // documented single-writer contract above, so the member cannot carry
  // GUARDED_BY without outlawing that API. Concurrent readers use
  // Snapshot(); the service driver's turnstile serializes the writer.
  // Register writes it under mu_; every accessor but active() reads it
  // under mu_.
  std::vector<bool> active_;
  // On a view: the private delta, the clusters registered on the view.
  std::deque<ClusterInfo> clusters_ GUARDED_BY(mu_);
  uint32_t clustered_users_ GUARDED_BY(mu_) = 0;
  uint64_t version_ GUARDED_BY(mu_) = 0;
};

}  // namespace nela::cluster

#endif  // NELA_CLUSTER_REGISTRY_H_
