// Tests for the durability subsystem: WAL record framing and torn-tail
// handling, per-shard checkpoint round trips (including torn-checkpoint
// rejection), golden pins of the on-disk encodings, and checkpoint+WAL
// recovery replaying to a bit-identical registry digest -- idempotently
// across repeated recoveries. Histories are written through the service's
// own write path (ShardedDurableRegistry) with one stream, the K=1 case.

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "durability/checkpoint.h"
#include "durability/crash_scheduler.h"
#include "durability/shard_layout.h"
#include "durability/sharded_durable_registry.h"
#include "durability/sharded_recovery.h"
#include "durability/wal.h"
#include "geo/rect.h"
#include "net/fault_plan.h"
#include "util/hash.h"

namespace nela::durability {
namespace {

constexpr uint32_t kUsers = 64;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

cluster::ClusterInfo Cluster(std::vector<graph::VertexId> members,
                             double connectivity, bool valid) {
  cluster::ClusterInfo info;
  info.members = std::move(members);
  info.connectivity = connectivity;
  info.valid = valid;
  return info;
}

WalRecord BatchRecord(uint64_t lsn, std::vector<WalClusterImage> clusters) {
  WalRecord record;
  record.lsn = lsn;
  record.type = WalRecordType::kShardRegisterBatch;
  record.clusters = std::move(clusters);
  return record;
}

// A one-stream durable registry over `registry`, logging under `dir`.
std::unique_ptr<ShardedDurableRegistry> OpenOneShard(
    cluster::Registry* registry, const std::string& dir,
    CrashPointScheduler* crash = nullptr) {
  auto durable = ShardedDurableRegistry::Open(registry, dir, 1, crash, {1},
                                              {}, /*truncate=*/true);
  NELA_CHECK(durable.ok());
  return std::move(durable).value();
}

// Logs a one-cluster commit.
util::Status Register(ShardedDurableRegistry& durable,
                      std::vector<graph::VertexId> members,
                      double connectivity, bool valid) {
  return durable.RegisterBatch(
      0, {Cluster(std::move(members), connectivity, valid)});
}

// Applies a small deterministic mutation history (five WAL records).
void ApplyHistory(ShardedDurableRegistry& durable) {
  ASSERT_TRUE(Register(durable, {1, 2, 3, 4, 5}, 0.25, true).ok());
  ASSERT_TRUE(Register(durable, {10, 11, 12}, 0.5, false).ok());
  ASSERT_TRUE(durable.SetRegion(0, geo::Rect(0.5, 1.25, 2.5, 4.0)).ok());
  ASSERT_TRUE(Register(durable, {20, 21, 22, 23, 24, 25}, 0.125, true).ok());
  ASSERT_TRUE(durable.SetRegion(2, geo::Rect(-3.0, -1.0, 0.0, 0.5)).ok());
}

// Digest of the registry assembled from one recovered shard.
uint64_t AssembledDigest(const ShardRecoveredState& shard) {
  ShardedRecoveredState state;
  state.user_count = kUsers;
  state.shards = {shard};
  auto registry = AssembleRegistry(state);
  NELA_CHECK(registry.ok());
  return registry.value()->Digest();
}

TEST(WalRecordTest, RegisterRecordRoundTrips) {
  WalRecord record =
      BatchRecord(7, {WalClusterImage{{3, 1, 4, 1u << 20}, 0.8125, false}});
  record.first_cluster_id = 12;
  auto decoded = DecodeWalRecord(EncodeWalRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().lsn, 7u);
  EXPECT_EQ(decoded.value().type, WalRecordType::kShardRegisterBatch);
  EXPECT_EQ(decoded.value().first_cluster_id, 12u);
  ASSERT_EQ(decoded.value().clusters.size(), 1u);
  EXPECT_EQ(decoded.value().clusters[0].members, record.clusters[0].members);
  EXPECT_EQ(decoded.value().clusters[0].connectivity, 0.8125);
  EXPECT_FALSE(decoded.value().clusters[0].valid);
}

TEST(WalRecordTest, SetRegionRecordRoundTripsBitExactly) {
  WalRecord record;
  record.lsn = 9;
  record.type = WalRecordType::kSetRegion;
  record.cluster_id = 12;
  record.region = geo::Rect(0.1, -2.75, 0.30000000000000004, 1e300);
  auto decoded = DecodeWalRecord(EncodeWalRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().cluster_id, 12u);
  EXPECT_EQ(decoded.value().region, record.region);
}

TEST(WalRecordTest, SetRegionNoRectangleCanHoldIsRejected) {
  WalRecord record;
  record.lsn = 4;
  record.type = WalRecordType::kSetRegion;
  record.region = geo::Rect(0.25, 0.25, 0.5, 0.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // (edge, value): edges 0-3 are min_x, min_y, max_x, max_y.
  for (const auto& [edge, value] : {std::pair{0, 0.75}, std::pair{1, 0.75},
                                    std::pair{0, nan}, std::pair{3, nan}}) {
    std::string payload = EncodeWalRecord(record);
    // [u64 lsn][u8 type][u32 cluster_id] precede the edges, little-endian.
    const uint64_t bits = util::DoubleBits(value);
    for (int i = 0; i < 8; ++i) {
      payload[8 + 1 + 4 + 8 * edge + i] = static_cast<char>(bits >> (8 * i));
    }
    EXPECT_FALSE(DecodeWalRecord(payload).ok()) << edge << " " << value;
  }
}

TEST(WalRecordTest, TruncatedPayloadIsRejected) {
  const std::string payload =
      EncodeWalRecord(BatchRecord(1, {WalClusterImage{{1, 2, 3}, 0.5, true}}));
  EXPECT_FALSE(DecodeWalRecord(payload.substr(0, payload.size() - 1)).ok());
}

TEST(WalRecordTest, RegisterBatchRecordRoundTrips) {
  WalRecord record =
      BatchRecord(11, {WalClusterImage{{5, 6, 7}, 0.375, true},
                       WalClusterImage{{1u << 19, 2}, 0.0625, false}});
  record.first_cluster_id = 40;
  auto decoded = DecodeWalRecord(EncodeWalRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().lsn, 11u);
  EXPECT_EQ(decoded.value().type, WalRecordType::kShardRegisterBatch);
  EXPECT_EQ(decoded.value().first_cluster_id, 40u);
  ASSERT_EQ(decoded.value().clusters.size(), 2u);
  EXPECT_EQ(decoded.value().clusters[0].members, record.clusters[0].members);
  EXPECT_EQ(decoded.value().clusters[0].connectivity, 0.375);
  EXPECT_TRUE(decoded.value().clusters[0].valid);
  EXPECT_EQ(decoded.value().clusters[1].members, record.clusters[1].members);
  EXPECT_EQ(decoded.value().clusters[1].connectivity, 0.0625);
  EXPECT_FALSE(decoded.value().clusters[1].valid);
}

// Golden FNVs of fixed encodings, recorded before the single-stream record
// types and the whole-registry checkpoint format were deleted: the on-disk
// bytes of the surviving formats must not move.
uint64_t Fnv(const std::string& bytes) {
  return util::FnvHashBytes(bytes.data(), bytes.size());
}

TEST(WalRecordTest, EncodingsMatchGoldenPins) {
  WalRecord batch;
  batch.lsn = 41;
  batch.type = WalRecordType::kShardRegisterBatch;
  batch.first_cluster_id = 17;
  batch.clusters.push_back(WalClusterImage{{5, 6, 7, 8, 9}, 0.375, true});
  batch.clusters.push_back(WalClusterImage{{1u << 19, 2, 3}, 0.0625, false});
  WalRecord region;
  region.lsn = 42;
  region.type = WalRecordType::kSetRegion;
  region.cluster_id = 18;
  region.region = geo::Rect(0.1, -2.75, 0.30000000000000004, 1e300);
  ShardCheckpointImage image;
  image.user_count = kUsers;
  image.covered_lsn = 42;
  ShardCheckpointCluster first;
  first.id = 3;
  first.info.members = {1, 2, 3, 4, 5};
  first.info.connectivity = 0.25;
  first.info.valid = true;
  first.info.region = geo::Rect(0.5, 1.25, 2.5, 4.0);
  ShardCheckpointCluster second;
  second.id = 7;
  second.info.members = {10, 11, 12};
  second.info.connectivity = 0.5;
  second.info.valid = false;
  image.clusters = {first, second};
  EXPECT_EQ(Fnv(EncodeWalRecord(batch)), 0x13e22abc509f3190ull);
  EXPECT_EQ(Fnv(EncodeWalRecord(region)), 0x772efcbc0667ec95ull);
  EXPECT_EQ(Fnv(EncodeShardCheckpoint(image)), 0x1c8f7ec52c0de832ull);
}

TEST(WalWriterTest, AppendedRecordsReadBackInOrder) {
  const std::string path = TempPath("wal_roundtrip.log");
  {
    auto writer = WalWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
      ASSERT_TRUE(writer.value()
                      ->Append(BatchRecord(
                          lsn, {WalClusterImage{
                                   {static_cast<graph::VertexId>(lsn), 50},
                                   0.5, true}}))
                      .ok());
    }
    EXPECT_EQ(writer.value()->records_appended(), 5u);
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().torn_bytes, 0u);
  ASSERT_EQ(read.value().records.size(), 5u);
  for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
    EXPECT_EQ(read.value().records[lsn - 1].lsn, lsn);
  }
}

TEST(WalWriterTest, MissingFileReadsAsEmptyLog) {
  auto read = ReadWal(TempPath("wal_never_written.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_EQ(read.value().torn_bytes, 0u);
}

TEST(WalWriterTest, TornTailIsDetectedTruncatedAndAppendableAgain) {
  const std::string path = TempPath("wal_torn.log");
  const WalRecord torn =
      BatchRecord(4, {WalClusterImage{{7, 8, 9}, 0.5, true}});
  {
    auto writer = WalWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok());
    for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(writer.value()
                      ->Append(BatchRecord(
                          lsn, {WalClusterImage{
                                   {static_cast<graph::VertexId>(lsn)}, 0.5,
                                   true}}))
                      .ok());
    }
    const size_t frame_size = EncodeWalRecord(torn).size() + 12;
    ASSERT_TRUE(writer.value()->AppendTorn(torn, frame_size / 2).ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().records.size(), 3u);
  EXPECT_GT(read.value().torn_bytes, 0u);

  auto removed = TruncateTornTail(path);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), read.value().torn_bytes);

  // A reopened writer appends after the intact prefix.
  {
    auto writer = WalWriter::Open(path, /*truncate=*/false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(torn).ok());
  }
  auto reread = ReadWal(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().torn_bytes, 0u);
  ASSERT_EQ(reread.value().records.size(), 4u);
  EXPECT_EQ(reread.value().records[3].lsn, 4u);
}

TEST(CheckpointTest, RegistryImageRoundTripsToIdenticalDigest) {
  const std::string dir = FreshDir("checkpoint_roundtrip");
  cluster::Registry registry(kUsers);
  auto durable = OpenOneShard(&registry, dir);
  ApplyHistory(*durable);
  ASSERT_TRUE(durable->CheckpointAll(1).ok());

  auto image =
      ReadShardCheckpoint(CheckpointPath(ShardCheckpointDir(dir, 0), 1));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image.value().user_count, kUsers);
  EXPECT_EQ(image.value().covered_lsn, durable->last_lsn(0));
  ShardRecoveredState slice;
  slice.clusters = image.value().clusters;
  EXPECT_EQ(AssembledDigest(slice), registry.Digest());
}

TEST(CheckpointTest, TornCheckpointIsRejected) {
  ShardCheckpointImage image;
  image.user_count = kUsers;
  image.covered_lsn = 3;
  ShardCheckpointCluster entry;
  entry.info = Cluster({1, 2, 3, 4, 5}, 0.25, true);
  entry.info.region = geo::Rect(0.5, 1.25, 2.5, 4.0);
  image.clusters = {entry};
  const std::string path = TempPath("checkpoint_torn.ckpt");
  const std::string encoded = EncodeShardCheckpoint(image);
  ASSERT_TRUE(WriteCheckpointFile(path, encoded).ok());
  ASSERT_TRUE(ReadShardCheckpoint(path).ok());
  ASSERT_TRUE(
      WriteTornCheckpointFile(path, encoded, encoded.size() / 2).ok());
  EXPECT_FALSE(ReadShardCheckpoint(path).ok());
}

TEST(RecoveryTest, WalOnlyReplayRebuildsIdenticalDigest) {
  const std::string dir = FreshDir("recovery_wal_only");
  cluster::Registry live(kUsers);
  ApplyHistory(*OpenOneShard(&live, dir));

  auto recovered = RecoverShard(dir, 0, kUsers);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(AssembledDigest(recovered.value()), live.Digest());
  EXPECT_EQ(recovered.value().records_replayed, 5u);
  EXPECT_EQ(recovered.value().records_skipped, 0u);
  EXPECT_EQ(recovered.value().next_lsn, 6u);

  // Idempotency: recovering again from the same files yields the same
  // state, bit for bit.
  auto again = RecoverShard(dir, 0, kUsers);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(AssembledDigest(again.value()), live.Digest());
  EXPECT_EQ(again.value().next_lsn, recovered.value().next_lsn);
}

TEST(RecoveryTest, CheckpointBoundsReplayAndTornCheckpointFallsBack) {
  const std::string dir = FreshDir("recovery_ckpt_dir");
  cluster::Registry live(kUsers);
  // The second checkpoint is torn (kMidCheckpoint crash): recovery must
  // fall back to checkpoint 1 and replay the later records from the WAL.
  CrashPointScheduler crash(
      {net::ProcessCrashEvent{net::ProcessCrashPoint::kMidCheckpoint, 2}});
  {
    auto durable = OpenOneShard(&live, dir, &crash);
    ASSERT_TRUE(Register(*durable, {1, 2, 3}, 0.5, true).ok());
    ASSERT_TRUE(durable->CheckpointAll(1).ok());
    ASSERT_TRUE(durable->SetRegion(0, geo::Rect(0.0, 0.0, 1.0, 1.0)).ok());
    ASSERT_TRUE(Register(*durable, {8, 9, 10, 11}, 0.25, true).ok());
    ASSERT_FALSE(durable->CheckpointAll(2).ok());
  }

  auto recovered = RecoverShard(dir, 0, kUsers);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(AssembledDigest(recovered.value()), live.Digest());
  EXPECT_EQ(recovered.value().checkpoint_seq, 1u);
  EXPECT_EQ(recovered.value().max_checkpoint_seq, 2u);
  EXPECT_EQ(recovered.value().checkpoints_rejected, 1u);
  EXPECT_EQ(recovered.value().records_skipped, 1u);   // covered by ckpt 1
  EXPECT_EQ(recovered.value().records_replayed, 2u);  // region + cluster
}

TEST(RecoveryTest, TornWalTailIsDiscardedOnRecovery) {
  const std::string dir = FreshDir("recovery_torn_tail");
  cluster::Registry live(kUsers);
  // ApplyHistory makes five appends; the sixth crashes mid-append. It tears
  // the record on disk and is never applied, so the pre-crash in-memory
  // digest (== `live`) excludes it too.
  CrashPointScheduler crash(
      {net::ProcessCrashEvent{net::ProcessCrashPoint::kMidWalAppend, 6}});
  {
    auto durable = OpenOneShard(&live, dir, &crash);
    ApplyHistory(*durable);
    ASSERT_FALSE(Register(*durable, {40, 41, 42}, 0.5, true).ok());
  }

  auto recovered = RecoverShard(dir, 0, kUsers);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered.value().torn_bytes_discarded, 0u);
  EXPECT_EQ(AssembledDigest(recovered.value()), live.Digest());

  // Idempotent: the tail is already gone on the second pass.
  auto again = RecoverShard(dir, 0, kUsers);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().torn_bytes_discarded, 0u);
  EXPECT_EQ(AssembledDigest(again.value()), live.Digest());
}

TEST(RecoveryTest, TornBatchHidesTheWholeCommit) {
  // One commit registering several clusters must be all-or-nothing: a torn
  // batch tail leaves no partial group behind, and an intact one replays
  // every cluster.
  const std::string dir = FreshDir("recovery_torn_batch");
  cluster::Registry live(kUsers);
  CrashPointScheduler crash(
      {net::ProcessCrashEvent{net::ProcessCrashPoint::kMidWalAppend, 7}});
  {
    auto durable = OpenOneShard(&live, dir, &crash);
    ApplyHistory(*durable);
    ASSERT_TRUE(durable
                    ->RegisterBatch(0, {Cluster({30, 31, 32, 33}, 0.75, true),
                                        Cluster({40, 41, 42}, 0.5, true)})
                    .ok());
    // A second batch commit crashes mid-append: torn on disk, not applied.
    ASSERT_FALSE(durable
                     ->RegisterBatch(0, {Cluster({50, 51, 52}, 0.25, true),
                                         Cluster({53, 54, 55}, 0.125, true)})
                     .ok());
  }

  auto recovered = RecoverAllShards(dir, 1, kUsers);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered.value().TotalTornBytes(), 0u);
  auto registry = AssembleRegistry(recovered.value());
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  // The intact batch replayed whole (both clusters), the torn one not at
  // all -- no user from the torn group is clustered.
  EXPECT_EQ(registry.value()->Digest(), live.Digest());
  EXPECT_TRUE(registry.value()->IsClustered(33));
  EXPECT_TRUE(registry.value()->IsClustered(42));
  for (graph::VertexId user : {50u, 51u, 52u, 53u, 54u, 55u}) {
    EXPECT_FALSE(registry.value()->IsClustered(user));
  }
}

}  // namespace
}  // namespace nela::durability
