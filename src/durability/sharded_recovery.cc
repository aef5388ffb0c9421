#include "durability/sharded_recovery.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "durability/shard_layout.h"
#include "durability/wal.h"

namespace nela::durability {

namespace {

util::Status CheckMembers(const cluster::ClusterInfo& info,
                          uint32_t user_count) {
  for (graph::VertexId member : info.members) {
    if (member >= user_count) {
      return util::InvalidArgumentError(
          "recovered cluster names a user outside the population");
    }
  }
  return util::Status();
}

}  // namespace

uint64_t ShardedRecoveredState::TotalReplayed() const {
  uint64_t total = 0;
  for (const ShardRecoveredState& shard : shards) {
    total += shard.records_replayed;
  }
  return total;
}

uint64_t ShardedRecoveredState::TotalTornBytes() const {
  uint64_t total = 0;
  for (const ShardRecoveredState& shard : shards) {
    total += shard.torn_bytes_discarded;
  }
  return total;
}

uint64_t ShardedRecoveredState::MaxCheckpointSeq() const {
  uint64_t max_seq = 0;
  for (const ShardRecoveredState& shard : shards) {
    max_seq = std::max(max_seq, shard.max_checkpoint_seq);
  }
  return max_seq;
}

util::Result<ShardRecoveredState> RecoverShard(const std::string& base_dir,
                                               uint32_t shard,
                                               uint32_t user_count) {
  if (user_count == 0) {
    return util::InvalidArgumentError(
        "shard recovery needs the population size");
  }
  ShardRecoveredState state;
  state.shard = shard;

  // --- 1. Newest intact per-shard checkpoint -------------------------------
  const std::string checkpoint_dir = ShardCheckpointDir(base_dir, shard);
  auto listed = ListCheckpointSeqs(checkpoint_dir);
  if (!listed.ok()) return listed.status();
  std::vector<uint64_t> seqs = std::move(listed).value();
  std::sort(seqs.rbegin(), seqs.rend());
  state.max_checkpoint_seq = seqs.empty() ? 0 : seqs.front();

  uint64_t covered_lsn = 0;
  for (uint64_t seq : seqs) {
    auto image = ReadShardCheckpoint(CheckpointPath(checkpoint_dir, seq));
    if (!image.ok()) {
      ++state.checkpoints_rejected;
      continue;  // torn mid-checkpoint write; fall back to the previous one
    }
    if (image.value().user_count != user_count) {
      return util::InvalidArgumentError(
          "shard checkpoint was cut for a different population size");
    }
    state.clusters = std::move(image.value().clusters);
    covered_lsn = image.value().covered_lsn;
    state.checkpoint_seq = seq;
    break;
  }

  // --- 2. Torn-tail truncation + replay of this shard's stream -------------
  // One read and one scan: the torn tail is cut from that scan's result.
  auto wal = ReadWalAndTruncateTornTail(ShardWalPath(base_dir, shard));
  if (!wal.ok()) return wal.status();
  state.torn_bytes_discarded = wal.value().torn_bytes;

  std::unordered_map<cluster::ClusterId, size_t> index_of;
  index_of.reserve(state.clusters.size());
  for (size_t i = 0; i < state.clusters.size(); ++i) {
    const util::Status members =
        CheckMembers(state.clusters[i].info, user_count);
    if (!members.ok()) return members;
    index_of.emplace(state.clusters[i].id, i);
  }

  uint64_t max_lsn = covered_lsn;
  for (const WalRecord& record : wal.value().records) {
    max_lsn = std::max(max_lsn, record.lsn);
    if (record.lsn <= covered_lsn) {
      ++state.records_skipped;  // already inside the checkpoint image
      continue;
    }
    switch (record.type) {
      case WalRecordType::kShardRegisterBatch: {
        // One atomic commit; the explicit first_cluster_id pins the global
        // ids because stream position alone cannot imply them.
        for (size_t c = 0; c < record.clusters.size(); ++c) {
          ShardCheckpointCluster entry;
          entry.id =
              record.first_cluster_id + static_cast<cluster::ClusterId>(c);
          entry.info.members = record.clusters[c].members;
          entry.info.connectivity = record.clusters[c].connectivity;
          entry.info.valid = record.clusters[c].valid;
          const util::Status members = CheckMembers(entry.info, user_count);
          if (!members.ok()) return members;
          if (!index_of.emplace(entry.id, state.clusters.size()).second) {
            return util::InvalidArgumentError(
                "shard WAL re-registers a cluster id the stream already "
                "carries");
          }
          state.clusters.push_back(std::move(entry));
        }
        break;
      }
      case WalRecordType::kSetRegion: {
        const auto it = index_of.find(record.cluster_id);
        if (it == index_of.end()) {
          return util::InvalidArgumentError(
              "shard WAL set-region references a cluster this stream never "
              "logged");
        }
        state.clusters[it->second].info.region = record.region;
        break;
      }
    }
    ++state.records_replayed;
  }

  // Streams log commits in global commit order, so ids ascend; sort anyway
  // to make the slice canonical even for hand-assembled directories.
  std::sort(state.clusters.begin(), state.clusters.end(),
            [](const ShardCheckpointCluster& a,
               const ShardCheckpointCluster& b) { return a.id < b.id; });
  state.next_lsn = max_lsn + 1;
  return state;
}

util::Result<ShardedRecoveredState> RecoverAllShards(
    const std::string& base_dir, uint32_t shard_count, uint32_t user_count,
    util::ThreadPool* pool) {
  if (shard_count == 0) {
    return util::InvalidArgumentError("shard recovery needs >= 1 shard");
  }
  std::vector<util::Status> errors(shard_count);
  std::vector<ShardRecoveredState> shards(shard_count);
  const auto recover_range = [&](size_t begin, size_t end) {
    for (size_t shard = begin; shard < end; ++shard) {
      auto recovered =
          RecoverShard(base_dir, static_cast<uint32_t>(shard), user_count);
      if (!recovered.ok()) {
        errors[shard] = recovered.status();
      } else {
        shards[shard] = std::move(recovered).value();
      }
    }
  };
  if (pool != nullptr && shard_count > 1) {
    // Each shard reads (and truncates) only its own directory, so the
    // recoveries are embarrassingly parallel: one chunk per shard, and no
    // sequential cutoff (a few shards are worth a dispatch).
    util::ChunkOptions options;
    options.grain = 1;
    options.sequential_cutoff = 0;
    pool->ParallelForChunks(
        shard_count, options,
        [&](uint32_t /*worker*/, uint64_t /*chunk*/, uint64_t begin,
            uint64_t end) { recover_range(begin, end); });
  } else {
    recover_range(0, shard_count);
  }
  for (const util::Status& error : errors) {
    if (!error.ok()) return error;
  }
  ShardedRecoveredState state;
  state.user_count = user_count;
  state.shards = std::move(shards);
  return state;
}

util::Result<std::unique_ptr<cluster::Registry>> AssembleRegistry(
    const ShardedRecoveredState& state) {
  if (state.user_count == 0) {
    return util::InvalidArgumentError(
        "cannot assemble a registry without the population size");
  }
  std::vector<const ShardCheckpointCluster*> ordered;
  for (const ShardRecoveredState& shard : state.shards) {
    for (const ShardCheckpointCluster& entry : shard.clusters) {
      ordered.push_back(&entry);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ShardCheckpointCluster* a,
               const ShardCheckpointCluster* b) { return a->id < b->id; });
  for (size_t i = 0; i < ordered.size(); ++i) {
    if (ordered[i]->id != static_cast<cluster::ClusterId>(i)) {
      // One commit lands in exactly one stream and ids are assigned by the
      // serialized turnstile, so intact directories always yield the
      // contiguous prefix 0..N-1; a gap or duplicate means tampering.
      return util::InvalidArgumentError(
          "recovered shard slices do not form a contiguous cluster-id "
          "prefix");
    }
  }
  auto registry = std::make_unique<cluster::Registry>(state.user_count);
  for (const ShardCheckpointCluster* entry : ordered) {
    auto id = registry->Register(entry->info.members,
                                 entry->info.connectivity,
                                 entry->info.valid);
    if (!id.ok()) return id.status();
    NELA_CHECK_EQ(id.value(), entry->id);
    if (entry->info.region.has_value()) {
      registry->SetRegion(entry->id, *entry->info.region);
    }
  }
  return registry;
}

}  // namespace nela::durability
