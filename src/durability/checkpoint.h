// Per-shard checkpoints of the cluster registry.
//
// A checkpoint is an image of one shard's slice -- the clusters its WAL
// stream logged, regions included -- taken at a known position of that
// stream (`covered_lsn`): recovery restores the newest intact checkpoint
// and then replays only WAL records with lsn > covered_lsn, bounding replay
// work by the checkpoint cadence rather than the total history length.
//
// On-disk format, all integers little-endian:
//
//   file := [u64 magic "NELACKP2"][u32 user_count][u64 covered_lsn]
//           [u32 cluster_count] cluster_count x cluster
//           [u64 fnv1a(everything before it)]
//   cluster := [u32 global_id][u32 n][n x u32 member]
//              [u64 connectivity_bits][u8 valid]
//              [u8 has_region][has_region ? 4 x u64 rect bits : nothing]
//
// Files are named checkpoint-<seq>.ckpt with a strictly increasing sequence
// number and written whole by one call, from bytes the writer already holds:
// the service keeps each stream's cluster entries encoded between cuts
// (durability/sharded_durable_registry.h), so a cut assembles header,
// entries and trailer without reading the registry, and may be written
// after the commit that queued it. A crash mid-write
// (ProcessCrashPoint::kMidCheckpoint) leaves a file whose trailer checksum
// cannot match, which ReadShardCheckpoint rejects so recovery falls back to
// the previous checkpoint -- or, with none left intact, to the whole WAL,
// which is never truncated. That fallback is why a writer may delete a
// checkpoint once a newer one is written in full.

#ifndef NELA_DURABILITY_CHECKPOINT_H_
#define NELA_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/registry.h"
#include "util/status.h"

namespace nela::durability {

// One cluster of a per-shard checkpoint: shard streams see only the
// clusters their shard's commits logged, so stream position cannot imply
// the global id -- it is stored explicitly (mirroring
// WalRecordType::kShardRegisterBatch).
struct ShardCheckpointCluster {
  cluster::ClusterId id = 0;
  cluster::ClusterInfo info;
};

// Checkpoint of one shard's slice at a known position of ITS OWN WAL
// stream; the (id, cluster) pairs are ascending by global id.
struct ShardCheckpointImage {
  uint32_t user_count = 0;
  uint64_t covered_lsn = 0;
  std::vector<ShardCheckpointCluster> clusters;
};

// Path of checkpoint number `seq` inside `dir`.
std::string CheckpointPath(const std::string& dir, uint64_t seq);

// Parses "checkpoint-<seq>.ckpt" -> seq; nullopt for any other name.
// Only the exact spelling CheckpointPath() produces is accepted: a leading
// zero ("checkpoint-007.ckpt") would otherwise parse to a seq whose file is
// a different one, and a digit run past u64 would wrap.
std::optional<uint64_t> CheckpointSeqOf(const std::string& filename);

// Seqs of the checkpoint files in `dir`, ascending, intact or not; empty
// when `dir` does not exist.
util::Result<std::vector<uint64_t>> ListCheckpointSeqs(const std::string& dir);

// Serializes one shard's slice: the header, each entry in order, then the
// FNV-1a trailer over both. The three pieces below are exactly those bytes,
// for writers that keep their entries encoded.
std::string EncodeShardCheckpoint(const ShardCheckpointImage& image);
void AppendShardCheckpointHeader(std::string* out, uint32_t user_count,
                                 uint64_t covered_lsn,
                                 uint32_t cluster_count);
void AppendShardCheckpointEntry(std::string* out, cluster::ClusterId id,
                                const cluster::ClusterInfo& info);
// Appends the trailer: the FNV-1a hash of everything already in `body`.
void AppendCheckpointTrailer(std::string* body);

// Writes `encoded` to `path` in full and flushes (fflush, no fsync).
[[nodiscard]] util::Status WriteCheckpointFile(const std::string& path,
                                               const std::string& encoded);

// Chaos hook for kMidCheckpoint: writes only the first `keep_bytes` bytes,
// simulating a crash mid-checkpoint. The resulting file must be rejected
// by ReadShardCheckpoint.
[[nodiscard]] util::Status WriteTornCheckpointFile(const std::string& path,
                                                   const std::string& encoded,
                                                   size_t keep_bytes);

// Parses and checksum-verifies one per-shard checkpoint file.
util::Result<ShardCheckpointImage> ReadShardCheckpoint(
    const std::string& path);

}  // namespace nela::durability

#endif  // NELA_DURABILITY_CHECKPOINT_H_
