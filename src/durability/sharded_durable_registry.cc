#include "durability/sharded_durable_registry.h"

#include <algorithm>
#include <utility>

#include "durability/checkpoint.h"
#include "durability/shard_layout.h"

namespace nela::durability {

namespace {

util::Status CrashError(net::ProcessCrashPoint point) {
  return util::UnavailableError(
      std::string("simulated process crash at ") +
      net::ProcessCrashPointName(point));
}

}  // namespace

ShardedDurableRegistry::ShardedDurableRegistry(
    cluster::Registry* registry, std::string base_dir,
    CrashPointScheduler* crash, std::vector<uint64_t> next_lsns,
    std::unordered_map<cluster::ClusterId, uint32_t> stream_of)
    : registry_(registry), base_dir_(std::move(base_dir)), crash_(crash),
      next_lsns_(std::move(next_lsns)), stream_of_(std::move(stream_of)) {
  NELA_CHECK(registry_ != nullptr);
  clusters_of_stream_.resize(next_lsns_.size());
  for (const auto& [id, stream] : stream_of_) {
    NELA_CHECK_LT(stream, clusters_of_stream_.size());
    clusters_of_stream_[stream].push_back(id);
  }
  for (std::vector<cluster::ClusterId>& ids : clusters_of_stream_) {
    std::sort(ids.begin(), ids.end());
  }
}

util::Result<std::unique_ptr<ShardedDurableRegistry>>
ShardedDurableRegistry::Open(
    cluster::Registry* registry, const std::string& base_dir,
    uint32_t shard_count, CrashPointScheduler* crash,
    std::vector<uint64_t> next_lsns,
    std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
    bool truncate) {
  NELA_CHECK_GE(shard_count, 1u);
  NELA_CHECK_EQ(next_lsns.size(), shard_count);
  const util::Status dirs = EnsureShardDirs(base_dir, shard_count);
  if (!dirs.ok()) return dirs;
  std::unique_ptr<ShardedDurableRegistry> store(new ShardedDurableRegistry(
      registry, base_dir, crash, std::move(next_lsns),
      std::move(stream_of)));
  store->wals_.reserve(shard_count);
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    auto wal = WalWriter::Open(ShardWalPath(base_dir, shard), truncate);
    if (!wal.ok()) return wal.status();
    store->wals_.push_back(std::move(wal).value());
  }
  return store;
}

util::Status ShardedDurableRegistry::AppendLocked(uint32_t stream,
                                                  const WalRecord& record) {
  if (crash_ != nullptr &&
      crash_->ShouldCrash(net::ProcessCrashPoint::kMidWalAppend)) {
    // Half of the framed record ([u32 len][u64 checksum] + payload) reaches
    // the file, as a crash mid-append would leave it.
    const std::string payload = EncodeWalRecord(record);
    (void)wals_[stream]->AppendTorn(record, (payload.size() + 12) / 2);
    return CrashError(net::ProcessCrashPoint::kMidWalAppend);
  }
  return wals_[stream]->Append(record);
}

util::Status ShardedDurableRegistry::RegisterBatch(
    uint32_t stream, const std::vector<cluster::ClusterInfo>& clusters) {
  if (clusters.empty()) return util::Status();
  NELA_CHECK_LT(stream, wals_.size());
  util::MutexLock lock(mu_);
  const cluster::ClusterId first_id = registry_->cluster_count();
  WalRecord record;
  record.lsn = next_lsns_[stream];
  record.type = WalRecordType::kShardRegisterBatch;
  record.first_cluster_id = first_id;
  record.clusters.reserve(clusters.size());
  for (const cluster::ClusterInfo& info : clusters) {
    record.clusters.push_back(
        WalClusterImage{info.members, info.connectivity, info.valid});
  }
  const util::Status appended = AppendLocked(stream, record);
  if (!appended.ok()) return appended;
  for (size_t c = 0; c < clusters.size(); ++c) {
    auto id = registry_->Register(clusters[c].members,
                                  clusters[c].connectivity,
                                  clusters[c].valid);
    if (!id.ok()) return id.status();
    NELA_CHECK_EQ(id.value(), first_id + static_cast<uint32_t>(c));
    stream_of_.emplace(id.value(), stream);
    clusters_of_stream_[stream].push_back(id.value());
  }
  ++next_lsns_[stream];
  return util::Status();
}

util::Status ShardedDurableRegistry::SetRegion(cluster::ClusterId id,
                                               const geo::Rect& region) {
  util::MutexLock lock(mu_);
  const auto it = stream_of_.find(id);
  if (it == stream_of_.end()) {
    return util::InvalidArgumentError(
        "region for a cluster no stream logged");
  }
  const uint32_t stream = it->second;
  WalRecord record;
  record.lsn = next_lsns_[stream];
  record.type = WalRecordType::kSetRegion;
  record.cluster_id = id;
  record.region = region;
  const util::Status appended = AppendLocked(stream, record);
  if (!appended.ok()) return appended;
  registry_->SetRegion(id, region);
  ++next_lsns_[stream];
  return util::Status();
}

util::Status ShardedDurableRegistry::CheckpointAll(uint64_t seq) {
  util::MutexLock lock(mu_);
  for (uint32_t stream = 0; stream < wals_.size(); ++stream) {
    ShardCheckpointImage image;
    image.user_count = registry_->user_count();
    image.covered_lsn = next_lsns_[stream] - 1;
    image.clusters.reserve(clusters_of_stream_[stream].size());
    for (cluster::ClusterId id : clusters_of_stream_[stream]) {
      ShardCheckpointCluster entry;
      entry.id = id;
      entry.info = registry_->info(id);
      entry.info.region = registry_->RegionOf(id);
      image.clusters.push_back(std::move(entry));
    }
    const std::string encoded = EncodeShardCheckpoint(image);
    const std::string path =
        CheckpointPath(ShardCheckpointDir(base_dir_, stream), seq);
    if (crash_ != nullptr &&
        crash_->ShouldCrash(net::ProcessCrashPoint::kMidCheckpoint)) {
      (void)WriteTornCheckpointFile(path, encoded, encoded.size() / 2);
      return CrashError(net::ProcessCrashPoint::kMidCheckpoint);
    }
    const util::Status written = WriteCheckpointFile(path, encoded);
    if (!written.ok()) return written;
  }
  return util::Status();
}

uint64_t ShardedDurableRegistry::wal_records() const {
  uint64_t total = 0;
  for (const std::unique_ptr<WalWriter>& wal : wals_) {
    total += wal->records_appended();
  }
  return total;
}

uint64_t ShardedDurableRegistry::wal_records_for(uint32_t stream) const {
  NELA_CHECK_LT(stream, wals_.size());
  return wals_[stream]->records_appended();
}

uint64_t ShardedDurableRegistry::last_lsn(uint32_t stream) const {
  util::MutexLock lock(mu_);
  NELA_CHECK_LT(stream, next_lsns_.size());
  return next_lsns_[stream] - 1;
}

}  // namespace nela::durability
