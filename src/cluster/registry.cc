#include "cluster/registry.h"

#include <algorithm>

#include "util/hash.h"

namespace nela::cluster {

Registry::Registry(uint32_t user_count, bool allow_overlap)
    : allow_overlap_(allow_overlap), user_count_(user_count),
      cluster_of_(user_count, kNoCluster), active_(user_count, true) {}

Registry::Registry(const Registry& live, ClusterId first_id)
    : allow_overlap_(live.allow_overlap_), user_count_(live.user_count_),
      first_id_(first_id), view_(true), active_(live.active_) {}

ClusterId Registry::ClusterOf(graph::VertexId v) const {
  NELA_CHECK_LT(v, user_count_);
  util::MutexLock lock(mu_);
  if (!view_) return cluster_of_[v];
  if (active_[v]) return kNoCluster;
  // Newest first, so an overlapping registry reports the most recent.
  for (size_t i = clusters_.size(); i-- > 0;) {
    const std::vector<graph::VertexId>& members = clusters_[i].members;
    if (std::binary_search(members.begin(), members.end(), v)) {
      return first_id_ + static_cast<ClusterId>(i);
    }
  }
  NELA_CHECK(false && "user clustered before the snapshot");
  return kNoCluster;
}

util::Result<ClusterId> Registry::Register(
    std::vector<graph::VertexId> members, double connectivity, bool valid) {
  if (members.empty()) {
    return util::InvalidArgumentError("cluster must have members");
  }
  util::MutexLock lock(mu_);
  for (graph::VertexId v : members) {
    if (v >= user_count_) {
      return util::InvalidArgumentError("member id out of range");
    }
    if (!active_[v] && !allow_overlap_) {
      return util::FailedPreconditionError(
          "user already clustered; reciprocity forbids reassignment");
    }
  }
  std::sort(members.begin(), members.end());
  for (size_t i = 1; i < members.size(); ++i) {
    if (members[i] == members[i - 1]) {
      return util::InvalidArgumentError("duplicate member");
    }
  }
  const ClusterId id = first_id_ + static_cast<ClusterId>(clusters_.size());
  for (graph::VertexId v : members) {
    if (active_[v]) ++clustered_users_;
    if (!view_) cluster_of_[v] = id;
    active_[v] = false;
  }
  clusters_.push_back(
      ClusterInfo{std::move(members), connectivity, valid, std::nullopt});
  ++version_;
  return id;
}

void Registry::SetRegion(ClusterId id, const geo::Rect& region) {
  util::MutexLock lock(mu_);
  ClusterInfo& info = clusters_[LocalIndexLocked(id)];
  NELA_CHECK(!info.region.has_value());
  NELA_CHECK(!region.empty());
  info.region = region;
}

uint64_t Registry::Digest() const {
  NELA_CHECK(!view_);
  util::MutexLock lock(mu_);
  uint64_t digest = util::kFnv64Offset;
  for (const ClusterInfo& info : clusters_) {
    util::FnvMix64(&digest, info.members.size());
    for (graph::VertexId member : info.members) {
      util::FnvMix64(&digest, member);
    }
    util::FnvMix64(&digest, info.valid ? 1 : 0);
    if (info.region.has_value()) {
      util::FnvMix64(&digest, util::DoubleBits(info.region->min_x()));
      util::FnvMix64(&digest, util::DoubleBits(info.region->min_y()));
      util::FnvMix64(&digest, util::DoubleBits(info.region->max_x()));
      util::FnvMix64(&digest, util::DoubleBits(info.region->max_y()));
    } else {
      // Sentinel for "no region yet"; kept stable because recorded digests
      // (tests, recovery assertions) depend on it.
      util::FnvMix64(&digest, 0xe0e0e0e0ull);
    }
  }
  return digest;
}

std::unique_ptr<Registry> Registry::Snapshot(uint64_t* version_out) const {
  NELA_CHECK(!view_);
  util::MutexLock lock(mu_);
  // Copies the mask (N bits) and two counters; no cluster is copied.
  std::unique_ptr<Registry> view(
      new Registry(*this, static_cast<ClusterId>(clusters_.size())));
  // The view is private to this thread, but its members are still guarded
  // state to the analysis -- take its (uncontended) lock for the writes.
  util::MutexLock view_lock(view->mu_);
  view->clustered_users_ = clustered_users_;
  view->version_ = version_;
  if (version_out != nullptr) *version_out = version_;
  return view;
}

}  // namespace nela::cluster
