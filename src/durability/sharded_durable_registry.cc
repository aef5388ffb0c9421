#include "durability/sharded_durable_registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "durability/checkpoint.h"
#include "durability/codec.h"
#include "durability/shard_layout.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nela::durability {

namespace {

util::Status CrashError(net::ProcessCrashPoint point) {
  return util::UnavailableError(
      std::string("simulated process crash at ") +
      net::ProcessCrashPointName(point));
}

struct CutAuditSlot {
  util::Mutex mu;
  ShardedDurableRegistry::CutAudit audit GUARDED_BY(mu);
};

CutAuditSlot& AuditSlot() {
  static CutAuditSlot slot;
  return slot;
}

}  // namespace

ShardedDurableRegistry::ShardedDurableRegistry(
    cluster::Registry* registry, std::string base_dir,
    CrashPointScheduler* crash, std::vector<uint64_t> next_lsns,
    std::unordered_map<cluster::ClusterId, uint32_t> stream_of)
    : registry_(registry), base_dir_(std::move(base_dir)),
      user_count_(registry->user_count()), crash_(crash),
      next_lsns_(std::move(next_lsns)), stream_of_(std::move(stream_of)) {
  // Setup is single-threaded, but the slices are guarded state; the
  // uncontended lock keeps the annotation exact.
  util::MutexLock lock(mu_);
  std::vector<std::vector<cluster::ClusterId>> ids(next_lsns_.size());
  for (const auto& [id, stream] : stream_of_) {
    NELA_CHECK_LT(stream, ids.size());
    ids[stream].push_back(id);
  }
  // A resumed run's recovered clusters are encoded once, here; from then
  // on every mutation keeps the cache current.
  slices_.resize(ids.size());
  for (uint32_t stream = 0; stream < ids.size(); ++stream) {
    std::sort(ids[stream].begin(), ids[stream].end());
    for (cluster::ClusterId id : ids[stream]) CacheEntryLocked(stream, id);
  }
  util::MutexLock cuts_lock(cuts_mu_);
  queued_.resize(ids.size());
  kept_seqs_.resize(ids.size());
}

util::Result<std::unique_ptr<ShardedDurableRegistry>>
ShardedDurableRegistry::Open(
    cluster::Registry* registry, const std::string& base_dir,
    uint32_t shard_count, CrashPointScheduler* crash,
    std::vector<uint64_t> next_lsns,
    std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
    bool truncate) {
  NELA_CHECK(registry != nullptr);
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
    auto kept = ListCheckpointSeqs(ShardCheckpointDir(base_dir, shard));
    if (!kept.ok()) return kept.status();
    store->kept_seqs_[shard] = std::move(kept).value();
  }
  return store;
}

util::Status ShardedDurableRegistry::AppendLocked(uint32_t stream,
                                                  const WalRecord& record) {
  if (crash_ != nullptr && crash_->crashed()) {
    // The process is dead: threads still unwinding write nothing more. A
    // frame appended after a torn one would otherwise complete the torn
    // frame's declared length and read as mid-log corruption.
    return CrashError(*crash_->fired());
  }
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
    CacheEntryLocked(stream, id.value());
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
#ifndef NELA_TEST_MUTANT_UNPATCHED_REGION
  // The entry ends in [u8 has_region = 0] (the registry just checked the
  // region was unset); patch in [1][rect].
  Slice& slice = slices_[stream];
  const size_t index = static_cast<size_t>(
      std::lower_bound(slice.ids.begin(), slice.ids.end(), id) -
      slice.ids.begin());
  NELA_CHECK(index < slice.ids.size() && slice.ids[index] == id);
  std::string& entry = slice.entries[index];
  NELA_CHECK_EQ(entry.back(), '\0');
  entry.back() = 1;
  codec::PutRect(&entry, region);
#endif
  ++next_lsns_[stream];
  return util::Status();
}

void ShardedDurableRegistry::CacheEntryLocked(uint32_t stream,
                                              cluster::ClusterId id) {
  Slice& slice = slices_[stream];
  NELA_CHECK(slice.ids.empty() || slice.ids.back() < id);
  std::string entry;
  AppendShardCheckpointEntry(&entry, id, registry_->info(id));
  slice.ids.push_back(id);
  slice.entries.push_back(std::move(entry));
}

void ShardedDurableRegistry::EncodeCutBodyLocked(uint32_t stream) {
  const Slice& slice = slices_[stream];
  cut_bytes_.clear();
  AppendShardCheckpointHeader(&cut_bytes_, user_count_,
                              next_lsns_[stream] - 1,
                              static_cast<uint32_t>(slice.ids.size()));
  for (const std::string& entry : slice.entries) cut_bytes_.append(entry);
}

std::string ShardedDurableRegistry::ReferenceCutLocked(
    uint32_t stream) const {
  ShardCheckpointImage image;
  image.user_count = registry_->user_count();
  image.covered_lsn = next_lsns_[stream] - 1;
  image.clusters.reserve(slices_[stream].ids.size());
  for (cluster::ClusterId id : slices_[stream].ids) {
    ShardCheckpointCluster entry;
    entry.id = id;
    entry.info = registry_->info(id);
    entry.info.region = registry_->RegionOf(id);
    image.clusters.push_back(std::move(entry));
  }
  return EncodeShardCheckpoint(image);
}

util::Status ShardedDurableRegistry::WriteCut(uint32_t stream, uint64_t seq,
                                              std::string* body) {
  AppendCheckpointTrailer(body);
  const std::string dir = ShardCheckpointDir(base_dir_, stream);
  const util::Status written =
      WriteCheckpointFile(CheckpointPath(dir, seq), *body);
  if (!written.ok()) return written;
  std::vector<uint64_t>& kept = kept_seqs_[stream];
  kept.insert(std::upper_bound(kept.begin(), kept.end(), seq), seq);
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  // kept[0, cut) is older than `seq`; all but its last entry go.
  const size_t cut = static_cast<size_t>(
      std::lower_bound(kept.begin(), kept.end(), seq) - kept.begin());
  if (cut < 2) return util::Status();
  size_t removed = 0;
  util::Status status;
  for (; removed + 1 < cut; ++removed) {
    const std::string path = CheckpointPath(dir, kept[removed]);
    std::error_code error;
    std::filesystem::remove(path, error);
    if (error) {
      status = util::UnavailableError("cannot prune checkpoint " + path +
                                      ": " + error.message());
      break;
    }
  }
  kept.erase(kept.begin(), kept.begin() + static_cast<ptrdiff_t>(removed));
  return status;
}

util::Status ShardedDurableRegistry::WriteCuts(bool wait) {
  util::MutexLock lock(cuts_mu_);
  if (writer_busy_ && !wait) return util::Status();
  while (writer_busy_) writer_done_.Wait(lock);
  writer_busy_ = true;
  util::Status status;
  while (status.ok()) {
    // Oldest queued cut first.
    uint32_t stream = 0;
    bool found = false;
    for (uint32_t s = 0; s < queued_.size(); ++s) {
      if (queued_[s].queued &&
          (!found || queued_[s].seq < queued_[stream].seq)) {
        stream = s;
        found = true;
      }
    }
    if (!found) break;
    QueuedCut& next = queued_[stream];
    next.queued = false;
    const uint64_t seq = next.seq;
    writing_.swap(next.body);
    lock.Unlock();
    status = WriteCut(stream, seq, &writing_);
    lock.Lock();
  }
  writer_busy_ = false;
  writer_done_.NotifyAll();
  return status;
}

void ShardedDurableRegistry::DeferCutWrites() {
  util::MutexLock lock(mu_);
  defer_cut_writes_ = true;
}

util::Status ShardedDurableRegistry::WriteQueuedCuts() {
  return WriteCuts(/*wait=*/false);
}

util::Status ShardedDurableRegistry::DrainCuts() {
  return WriteCuts(/*wait=*/true);
}

void ShardedDurableRegistry::SetCutAuditForTesting(CutAudit audit) {
  CutAuditSlot& slot = AuditSlot();
  util::MutexLock lock(slot.mu);
  slot.audit = std::move(audit);
}

util::Status ShardedDurableRegistry::CheckpointAll(uint64_t seq) {
  CutAudit audit;
  {
    CutAuditSlot& slot = AuditSlot();
    util::MutexLock lock(slot.mu);
    audit = slot.audit;
  }
  util::MutexLock lock(mu_);
  for (uint32_t stream = 0; stream < wals_.size(); ++stream) {
    Slice& slice = slices_[stream];
    const std::string dir = ShardCheckpointDir(base_dir_, stream);
    if (crash_ != nullptr &&
        crash_->ShouldCrash(net::ProcessCrashPoint::kMidCheckpoint)) {
      // Every cut queued before the crash reaches the disk first, as it
      // would with the writes on the commit path.
      (void)DrainCuts();
      EncodeCutBodyLocked(stream);
      AppendCheckpointTrailer(&cut_bytes_);
      (void)WriteTornCheckpointFile(CheckpointPath(dir, seq), cut_bytes_,
                                    cut_bytes_.size() / 2);
      return CrashError(net::ProcessCrashPoint::kMidCheckpoint);
    }
    const uint64_t covered_lsn = next_lsns_[stream] - 1;
    const std::optional<uint64_t> last_cut_lsn = slice.cut_lsn;
    const uint64_t last_cut_seq = slice.cut_seq;
    if (slice.cut_lsn != covered_lsn) {
      EncodeCutBodyLocked(stream);
      {
        util::MutexLock cuts_lock(cuts_mu_);
        QueuedCut& queued = queued_[stream];
        queued.queued = true;
        queued.seq = seq;
        queued.body.swap(cut_bytes_);
      }
      slice.cut_lsn = covered_lsn;
      slice.cut_seq = seq;
    }
    if (!defer_cut_writes_ || audit) {
      const util::Status drained = DrainCuts();
      if (!drained.ok()) {
        // Not cut after all: the next CheckpointAll tries the stream again.
        slice.cut_lsn = last_cut_lsn;
        slice.cut_seq = last_cut_seq;
        return drained;
      }
    }
    if (audit) {
      audit(stream, CheckpointPath(dir, slice.cut_seq),
            ReferenceCutLocked(stream));
    }
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
