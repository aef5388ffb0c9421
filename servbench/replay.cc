#include "replay.h"

#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#include "cluster/concurrency.h"
#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "cluster/shard_map.h"
#include "core/pipeline.h"
#include "core/request_context.h"
#include "core/stages.h"
#include "durability/shard_layout.h"
#include "durability/sharded_durable_registry.h"
#include "durability/sharded_recovery.h"
#include "lbs/server.h"
#include "net/network.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/timer.h"

namespace nela::servbench {

namespace {

// Runs a pipeline stage inside a span; the stage's name (and so the
// request's trace) is unchanged.
class TimedStage : public core::Stage {
 public:
  TimedStage(core::Stage* inner, const char* label, SpanRecorder& recorder)
      : inner_(inner), label_(label), recorder_(recorder) {}
  const char* name() const override { return inner_->name(); }
  [[nodiscard]] util::Status Run(core::RequestContext& ctx,
                                 core::PipelineState& state,
                                 core::StageRecord& record) override {
    const ScopedSpan span(recorder_, label_);
    return inner_->Run(ctx, state, record);
  }

 private:
  core::Stage* inner_;
  const char* label_;
  SpanRecorder& recorder_;
};

// PublishStage's region write, routed through the sharded WAL inside a
// span (the driver's ShardedRegionWriter, timed).
class TimedRegionWriter : public core::RegionWriter {
 public:
  TimedRegionWriter(durability::ShardedDurableRegistry* durable,
                    SpanRecorder& recorder)
      : durable_(durable), recorder_(recorder) {}
  [[nodiscard]] util::Status WriteRegion(cluster::ClusterId id,
                                         const geo::Rect& region) override {
    const ScopedSpan span(recorder_, "durability.set_region");
    return durable_->SetRegion(id, region);
  }

 private:
  durability::ShardedDurableRegistry* durable_;
  SpanRecorder& recorder_;
};

class Replayer {
 public:
  Replayer(const Setup& setup, const core::PolicyFactory& policy,
           const ServiceRunConfig& config, SpanRecorder& recorder)
      : setup_(setup), policy_(policy), config_(config),
        recorder_(recorder), map_(setup.dataset, config.shards),
        registry_(setup.dataset.size()), network_(setup.dataset.size()),
        server_(setup.poi.get(), core::BoundingParams().cr) {
    for (uint32_t shard = 0; shard < config.shards; ++shard) {
      coordinators_.push_back(
          std::make_unique<cluster::ClaimCoordinator>(setup.dataset.size()));
    }
  }

  util::Status OpenDurability(const std::string& dir) {
    auto opened = durability::ShardedDurableRegistry::Open(
        &registry_, dir, config_.shards, nullptr,
        std::vector<uint64_t>(config_.shards, 1), {}, /*truncate=*/true);
    if (!opened.ok()) return opened.status();
    durable_ = std::move(opened).value();
    region_writer_ =
        std::make_unique<TimedRegionWriter>(durable_.get(), recorder_);
    return util::Status::Ok();
  }

  // The driver's per-request path with nothing contending: speculation,
  // turnstile commit, checkpoint cadence, region resolution, then the
  // request's trace and its LBS query.
  util::Status Request(uint64_t ordinal, data::UserId host,
                       ReplayResult& out) {
    const cluster::ShardId home = map_.HomeShardOf(host);
    const cluster::Ticket ticket = ordinal + 1;
    core::RequestContext ctx(config_.master_seed, ordinal, host);

    // Speculation against a snapshot.
    uint64_t spec_version = 0;
    uint64_t involved = 0;
    std::vector<cluster::ClusterInfo> candidate;
    std::unique_ptr<cluster::Registry> scratch;
    {
      const ScopedSpan span(recorder_, "cluster.snapshot");
      scratch = registry_.Snapshot(&spec_version);
    }
    if (!scratch->IsClustered(host)) {
      const cluster::ClusterId first_new = scratch->cluster_count();
      {
        const ScopedSpan span(recorder_, "cluster.tconn");
        cluster::DistributedTConnClusterer clusterer(
            setup_.graph, config_.k, scratch.get());
        auto clustered = clusterer.ClusterFor(host);
        if (!clustered.ok()) return clustered.status();
        involved = clustered.value().involved_users;
      }
      std::vector<graph::VertexId> claim_set;
      for (cluster::ClusterId id = first_new; id < scratch->cluster_count();
           ++id) {
        const cluster::ClusterInfo& info = scratch->info(id);
        claim_set.insert(claim_set.end(), info.members.begin(),
                         info.members.end());
        candidate.push_back(info);
      }
      out.involved_users += involved;
      out.members_clustered += claim_set.size();
      const ScopedSpan span(recorder_, "cluster.claim");
      if (!ClaimAcross(ticket, home, claim_set)) {
        return util::InternalError("an uncontended claim failed");
      }
    }
    {
      const ScopedSpan span(recorder_, "cluster.snapshot", /*call=*/false);
      scratch.reset();
    }

    // Turnstile: commit the speculation.
    bool resolved_hit = false;
    cluster::ClusterId cid = cluster::kNoCluster;
    if (registry_.IsClustered(host)) {
      resolved_hit = true;
      cid = registry_.ClusterOf(host);
    } else {
      if (spec_version != registry_.version()) {
        return util::InternalError("the registry moved under one thread");
      }
      if (durable_ != nullptr) {
        const ScopedSpan span(recorder_, "durability.register_batch");
        const util::Status committed = durable_->RegisterBatch(home, candidate);
        if (!committed.ok()) return committed;
      } else {
        const ScopedSpan span(recorder_, "cluster.register");
        for (const cluster::ClusterInfo& info : candidate) {
          auto committed =
              registry_.Register(info.members, info.connectivity, info.valid);
          if (!committed.ok()) return committed.status();
        }
      }
      cid = registry_.ClusterOf(host);
    }
    if (durable_ != nullptr && config_.checkpoint_interval > 0 &&
        ++commits_since_checkpoint_ >= config_.checkpoint_interval) {
      commits_since_checkpoint_ = 0;
      const ScopedSpan span(recorder_, "durability.checkpoint");
      const util::Status cut = durable_->CheckpointAll(++checkpoint_seq_);
      if (!cut.ok()) return cut;
    }

    // Region resolution: reuse the published region or publish one.
    const cluster::ClusterInfo& info = registry_.info(cid);
    core::PipelineState state;
    state.host = host;
    state.k = config_.k;
    state.coordinator = coordinators_[home].get();
    state.ticket = ticket;
    state.cluster_info = &info;
    state.shard.shard_count = config_.shards;
    state.shard.home_shard = home;
    state.shard.owner_shard = map_.OwnerOf(info.members);
    state.shard.cross_shard = map_.CrossesShards(info.members);
    state.outcome.cluster_id = cid;
    state.outcome.cluster_reused = resolved_hit;
    state.outcome.clustering_messages = involved;
    state.outcome.anonymity_satisfied = info.valid;
    auto append = [&](const char* stage, bool ran, std::string detail) {
      core::StageRecord record;
      record.stage = stage;
      record.ran = ran;
      record.detail = std::move(detail);
      ctx.trace().Record(record.stage, record.code, record.detail);
      state.outcome.degradation.stages.push_back(std::move(record));
    };

    const std::optional<geo::Rect> published = registry_.RegionOf(cid);
    util::Status status;
    if (published.has_value()) {
      {
        const ScopedSpan span(recorder_, "core.trace", /*call=*/false);
        state.outcome.region = *published;
        state.outcome.region_reused = true;
        append("resolve_reuse", true,
               "hit cluster=" + std::to_string(cid) + " region=reused");
        for (const char* stage :
             {"cluster", "claim_commit", "secure_bound", "publish"}) {
          append(stage, false, "skipped");
        }
      }
      const ScopedSpan span(recorder_, "cluster.release");
      ReleaseAll(ticket);
    } else {
      {
        const ScopedSpan span(recorder_, "core.trace", /*call=*/false);
        if (resolved_hit) {
          append("resolve_reuse", true,
                 "hit cluster=" + std::to_string(cid) + " region=pending");
          append("cluster", true, "resolved");
        } else {
          append("resolve_reuse", true, "miss");
          append("cluster", true,
                 "cluster=" + std::to_string(cid) +
                     " members=" + std::to_string(info.members.size()) +
                     " valid=" + std::to_string(info.valid ? 1 : 0) +
                     " involved=" + std::to_string(involved));
        }
      }
      core::ClaimCommitStage claim_commit;
      core::SecureBoundStage::Config bound_config;
      bound_config.dataset = &setup_.dataset;
      bound_config.policy_factory = &policy_;
      bound_config.network = &network_;
      bound_config.jitter_from_context = true;
      core::SecureBoundStage secure_bound(bound_config);
      core::PublishStage publish(&registry_, &secure_bound, &network_,
                                 region_writer_.get());
      TimedStage timed_claim(&claim_commit, "core.claim_commit", recorder_);
      TimedStage timed_bound(&secure_bound, "bounding.secure_bound",
                             recorder_);
      TimedStage timed_publish(&publish, "core.publish", recorder_);
      const std::vector<core::Stage*> stages = {&timed_claim, &timed_bound,
                                                &timed_publish};
      {
        const ScopedSpan span(recorder_, "core.pipeline");
        status = core::RunPipeline(stages, ctx, state);
      }
      const ScopedSpan span(recorder_, "cluster.release");
      ReleaseAll(ticket);
    }
    if (!status.ok()) return status;

    {
      const ScopedSpan span(recorder_, "core.trace");
      core::FinalizeDegradation(ctx, &state.outcome);
      out.trace_bytes += ctx.trace().ToString().size();
    }
    if (state.outcome.degradation.finalize_count != 1) {
      ++out.finalize_violations;
    }
    out.bounding_verifications += state.outcome.bounding_verifications;
    out.bytes_delivered += ctx.scope().stats().bytes_delivered;
    if (state.outcome.anonymity_satisfied && !state.outcome.region.empty()) {
      const ScopedSpan span(recorder_, "lbs.range_query");
      out.lbs_candidates +=
          server_.RangeQuery(state.outcome.region).candidate_count;
    }
    return util::Status::Ok();
  }

  void OpenTickets(uint64_t requests) {
    for (uint64_t ordinal = 0; ordinal < requests; ++ordinal) {
      for (std::unique_ptr<cluster::ClaimCoordinator>& coordinator :
           coordinators_) {
        (void)coordinator->OpenRequestAt(ordinal + 1);
      }
    }
  }

  const cluster::Registry& registry() const { return registry_; }

 private:
  // Home shard first, then ascending foreign shards, all or nothing: the
  // driver's cross-shard claim handoff.
  bool ClaimAcross(cluster::Ticket ticket, cluster::ShardId home,
                   const std::vector<graph::VertexId>& members) {
    const uint32_t shard_count = config_.shards;
    if (shard_count == 1) return coordinators_[0]->TryClaim(ticket, members);
    std::vector<std::vector<graph::VertexId>> buckets(shard_count);
    for (graph::VertexId member : members) {
      buckets[map_.HomeShardOf(member)].push_back(member);
    }
    std::vector<cluster::ShardId> order;
    if (!buckets[home].empty()) order.push_back(home);
    for (cluster::ShardId shard = 0; shard < shard_count; ++shard) {
      if (shard != home && !buckets[shard].empty()) order.push_back(shard);
    }
    for (cluster::ShardId shard : order) {
      if (!coordinators_[shard]->TryClaim(ticket, buckets[shard])) {
        return false;
      }
    }
    return true;
  }

  void ReleaseAll(cluster::Ticket ticket) {
    for (std::unique_ptr<cluster::ClaimCoordinator>& coordinator :
         coordinators_) {
      coordinator->Release(ticket);
    }
  }

  const Setup& setup_;
  const core::PolicyFactory& policy_;
  const ServiceRunConfig& config_;
  SpanRecorder& recorder_;
  cluster::ShardMap map_;
  cluster::Registry registry_;
  net::Network network_;
  lbs::LbsServer server_;
  std::vector<std::unique_ptr<cluster::ClaimCoordinator>> coordinators_;
  std::unique_ptr<durability::ShardedDurableRegistry> durable_;
  std::unique_ptr<core::RegionWriter> region_writer_;
  uint64_t commits_since_checkpoint_ = 0;
  uint64_t checkpoint_seq_ = 0;
};

// Times RecoverAllShards and AssembleRegistry (one thread) and measures the
// directory's WAL and checkpoint bytes.
void RecoverTraced(const std::string& dir, const Setup& setup,
                   const ServiceRunConfig& config, SpanRecorder& recorder,
                   ReplayResult& out) {
  for (uint32_t shard = 0; shard < config.shards; ++shard) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(
        durability::ShardWalPath(dir, shard), ec);
    if (!ec) out.wal_bytes += bytes;
  }
  out.checkpoint_bytes = DirectoryBytes(dir) - out.wal_bytes;

  recorder.set_request(kNoRequest);
  util::Result<durability::ShardedRecoveredState> recovered =
      util::InternalError("not recovered");
  {
    const ScopedSpan span(recorder, "durability.recover_shards");
    recovered = durability::RecoverAllShards(dir, config.shards,
                                             setup.dataset.size());
  }
  if (!recovered.ok()) {
    out.error = "traced recovery failed";
    return;
  }
  out.records_replayed = recovered.value().TotalReplayed();
  util::Result<std::unique_ptr<cluster::Registry>> assembled =
      util::InternalError("not assembled");
  {
    const ScopedSpan span(recorder, "durability.assemble");
    assembled = durability::AssembleRegistry(recovered.value());
  }
  if (!assembled.ok()) {
    out.error = "traced registry assembly failed";
    return;
  }
  out.recovered_digest = assembled.value()->Digest();
}

}  // namespace

ReplayResult Replay(const Setup& setup, const core::PolicyFactory& policy,
                    const ServiceRunConfig& config, SpanRecorder& recorder) {
  ReplayResult out;
  const util::WallTimer wall;
  Replayer replayer(setup, policy, config, recorder);
  const std::string& dir = config.durability_dir;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    const util::Status opened = replayer.OpenDurability(dir);
    if (!opened.ok()) {
      out.error = std::string("durability open failed: ") +
                  util::StatusCodeName(opened.code());
      return out;
    }
  }

  util::Rng workload_rng(config.workload_seed);
  const std::vector<data::UserId> hosts =
      sim::SampleWorkload(setup.dataset.size(), config.requests, workload_rng);
  replayer.OpenTickets(hosts.size());
  for (uint64_t ordinal = 0; ordinal < hosts.size(); ++ordinal) {
    recorder.set_request(static_cast<uint32_t>(ordinal));
    const ScopedSpan span(recorder, kRequestSpan);
    const util::Status status = replayer.Request(ordinal, hosts[ordinal], out);
    if (!status.ok()) {
      out.error = std::string("replayed request failed: ") +
                  util::StatusCodeName(status.code());
      break;
    }
  }
  recorder.set_request(kNoRequest);
  out.registry_digest = replayer.registry().Digest();

  if (!dir.empty()) {
    if (out.error.empty()) RecoverTraced(dir, setup, config, recorder, out);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  out.wall_s = wall.ElapsedSeconds();
  return out;
}

}  // namespace nela::servbench
