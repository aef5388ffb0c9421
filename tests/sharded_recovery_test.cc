// Per-shard recovery: a clean multi-shard run recovers to its final
// registry (serially and in parallel, whole or one shard at a time), and
// recovery refuses hostile directory contents -- a checksum-valid WAL
// frame that does not decode, a checkpoint whose region cannot decode, or
// checkpoint files with non-canonical names. The crash matrix lives in
// recovery_kill_anywhere_test.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "core/policy_factory.h"
#include "durability/checkpoint.h"
#include "durability/shard_layout.h"
#include "durability/sharded_durable_registry.h"
#include "durability/sharded_recovery.h"
#include "durability/wal.h"
#include "geo/rect.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nela::sim {
namespace {

constexpr uint32_t kRequests = 96;
constexpr uint32_t kShards = 4;

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.user_count = 600;
    config.delta = 0.03;
    config.seed = 11;
    auto built = BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

ShardedServiceConfig DurableConfig(uint32_t threads,
                                   const std::string& dir) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = kRequests;
  config.service.threads = threads;
  config.service.master_seed = 99;
  config.service.workload_seed = 17;
  config.service.checkpoint_interval = 4;
  config.shards = kShards;
  config.durability_dir = dir;
  return config;
}

ShardedServiceResult MustRun(const ShardedServiceConfig& config) {
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  ShardedServiceDriver driver(scenario.dataset, scenario.graph,
                              core::MakeSecurePolicyFactory(params), config);
  auto result = driver.Run();
  NELA_CHECK(result.ok());
  return std::move(result).value();
}

std::string FreshCaseDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shard_kill_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Digest of an uninterrupted K-shard run of the same workload, computed
// without durability (logging is write-through and must not change what
// gets clustered).
uint64_t UninterruptedDigest() {
  static const uint64_t digest = [] {
    ShardedServiceConfig config = DurableConfig(4, "");
    config.durability_dir.clear();
    config.service.checkpoint_interval = 0;
    return MustRun(config).service.registry_digest;
  }();
  return digest;
}

std::vector<uint64_t> ShardNextLsns(
    const durability::ShardedRecoveredState& state) {
  std::vector<uint64_t> lsns;
  for (const durability::ShardRecoveredState& shard : state.shards) {
    lsns.push_back(shard.next_lsn);
  }
  return lsns;
}

// Recovering right after a clean sharded run reproduces the final registry,
// and the serial and parallel recovery paths agree bit for bit.
TEST(ShardedRecoveryTest, RecoverAfterCleanRunReproducesFinalState) {
  const std::string dir = FreshCaseDir("clean");
  const ShardedServiceResult result = MustRun(DurableConfig(4, dir));
  ASSERT_FALSE(result.service.crashed);
  EXPECT_EQ(result.service.registry_digest, UninterruptedDigest());
  EXPECT_GT(result.service.wal_records, 0u);
  EXPECT_GT(result.service.checkpoints_written, 0u);

  const uint32_t user_count = SharedScenario().dataset.size();
  auto serial =
      durability::RecoverAllShards(dir, kShards, user_count);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial.value().TotalTornBytes(), 0u);

  util::ThreadPool pool(4);
  auto parallel =
      durability::RecoverAllShards(dir, kShards, user_count, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(ShardNextLsns(serial.value()), ShardNextLsns(parallel.value()));

  auto serial_registry = durability::AssembleRegistry(serial.value());
  ASSERT_TRUE(serial_registry.ok()) << serial_registry.status().ToString();
  auto parallel_registry = durability::AssembleRegistry(parallel.value());
  ASSERT_TRUE(parallel_registry.ok());
  EXPECT_EQ(serial_registry.value()->Digest(),
            result.service.registry_digest);
  EXPECT_EQ(parallel_registry.value()->Digest(),
            result.service.registry_digest);
}

// A single shard's slice can be recovered alone, and doing so produces the
// same slice RecoverAllShards sees -- per-shard recovery really is a pure
// function of that shard's directory.
TEST(ShardedRecoveryTest, SingleShardRecoveryMatchesFullRecovery) {
  const std::string dir = FreshCaseDir("single");
  const ShardedServiceResult result = MustRun(DurableConfig(4, dir));
  ASSERT_FALSE(result.service.crashed);

  const uint32_t user_count = SharedScenario().dataset.size();
  auto all = durability::RecoverAllShards(dir, kShards, user_count);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    auto one = durability::RecoverShard(dir, shard, user_count);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(one.value().next_lsn, all.value().shards[shard].next_lsn);
    EXPECT_EQ(one.value().clusters.size(),
              all.value().shards[shard].clusters.size());
    EXPECT_EQ(one.value().checkpoint_seq,
              all.value().shards[shard].checkpoint_seq);
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutLe(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

// A WAL frame around `payload` with a correct length and checksum.
std::string ChecksumValidFrame(const std::string& payload) {
  std::string frame;
  PutLe(&frame, payload.size(), 4);
  PutLe(&frame, util::FnvHashBytes(payload.data(), payload.size()), 8);
  return frame + payload;
}

// Overwrites the 8 bytes at `offset` with the bit pattern of `value`.
void PatchDouble(std::string* bytes, size_t offset, double value) {
  std::string bits;
  PutLe(&bits, util::DoubleBits(value), 8);
  bytes->replace(offset, 8, bits);
}

// A checksum-valid frame around a batch payload whose type byte (after the
// u64 lsn) is replaced by `type`.
std::string RetypedBatchFrame(uint64_t lsn, uint8_t type) {
  durability::WalRecord batch;
  batch.lsn = lsn;
  batch.clusters = {{{6, 7, 8, 9, 10}, 0.5, true}};
  std::string payload = durability::EncodeWalRecord(batch);
  payload[8] = static_cast<char>(type);
  return ChecksumValidFrame(payload);
}

// Opens a one-shard stream under `dir` over `registry` and commits cluster
// 0 (users 1-5) as lsn 1.
std::unique_ptr<durability::ShardedDurableRegistry> OneCommitStream(
    const std::string& dir, cluster::Registry* registry) {
  auto durable = durability::ShardedDurableRegistry::Open(
      registry, dir, 1, nullptr, {1}, {}, /*truncate=*/true);
  NELA_CHECK(durable.ok());
  cluster::ClusterInfo info;
  info.members = {1, 2, 3, 4, 5};
  info.connectivity = 0.5;
  NELA_CHECK(durable.value()->RegisterBatch(0, {info}).ok());
  return std::move(durable).value();
}

// A checksum-valid frame can only come from a complete append, so one that
// does not decode (a retired or unknown type byte, or region bytes no
// rectangle can hold: min > max or a NaN coordinate) is corruption, not a
// torn tail: reading, truncating and recovering must all fail -- never
// abort -- and leave the stream byte-identical, never cut it back and drop
// the intact commit logged after the bad frame.
TEST(ShardedRecoveryTest, ChecksumValidUndecodableFrameIsAnError) {
  const uint32_t user_count = SharedScenario().dataset.size();
  durability::WalRecord region;
  region.type = durability::WalRecordType::kSetRegion;
  region.cluster_id = 0;
  region.region = geo::Rect(0.25, 0.25, 0.5, 0.5);
  region.lsn = 2;
  // Offset of min_x: [u64 lsn][u8 type][u32 cluster_id][4 x u64 rect].
  constexpr size_t kMinX = 8 + 1 + 4;
  std::string inverted = durability::EncodeWalRecord(region);
  PatchDouble(&inverted, kMinX, 0.75);
  std::string nan = durability::EncodeWalRecord(region);
  PatchDouble(&nan, kMinX + 8, std::numeric_limits<double>::quiet_NaN());
  const std::pair<std::string, std::string> cases[] = {
      {"type1", RetypedBatchFrame(2, 1)},
      {"type9", RetypedBatchFrame(2, 9)},
      {"inverted_region", ChecksumValidFrame(inverted)},
      {"nan_region", ChecksumValidFrame(nan)}};

  for (const auto& [name, frame] : cases) {
    const std::string dir = FreshCaseDir("undecodable_" + name);
    const std::string stream_path = durability::ShardWalPath(dir, 0);
    {
      cluster::Registry registry(user_count);
      OneCommitStream(dir, &registry);
    }
    AppendBytes(stream_path, frame);
    {
      auto writer =
          durability::WalWriter::Open(stream_path, /*truncate=*/false);
      ASSERT_TRUE(writer.ok());
      region.lsn = 3;
      ASSERT_TRUE(writer.value()->Append(region).ok());
    }
    const std::string before = ReadBytes(stream_path);

    EXPECT_FALSE(durability::ReadWal(stream_path).ok()) << name;
    EXPECT_FALSE(durability::TruncateTornTail(stream_path).ok()) << name;
    EXPECT_FALSE(durability::RecoverShard(dir, 0, user_count).ok()) << name;
    EXPECT_FALSE(durability::RecoverAllShards(dir, 1, user_count).ok())
        << name;
    EXPECT_EQ(ReadBytes(stream_path), before)
        << "a failed recovery modified the stream (" << name << ")";
  }
}

// A torn append leaves a prefix of its frame, so a frame whose declared
// length fits in the file but whose checksum fails is corruption, not a
// torn tail. One bit flipped in frame 3 of 10 must fail every reader with
// kDataLoss and leave the stream byte-identical -- never cut it back to two
// frames and report success.
TEST(ShardedRecoveryTest, MidLogBitFlipIsDataLossNotATornTail) {
  const uint32_t user_count = SharedScenario().dataset.size();
  const std::string dir = FreshCaseDir("mid_log_bit_flip");
  const std::string stream_path = durability::ShardWalPath(dir, 0);
  {
    cluster::Registry registry(user_count);
    auto durable = durability::ShardedDurableRegistry::Open(
        &registry, dir, 1, nullptr, {1}, {}, /*truncate=*/true);
    ASSERT_TRUE(durable.ok());
    for (graph::VertexId first = 0; first < 50; first += 5) {
      cluster::ClusterInfo info;
      info.members = {first, first + 1, first + 2, first + 3, first + 4};
      info.connectivity = 0.5;
      ASSERT_TRUE(durable.value()->RegisterBatch(0, {info}).ok());
    }
  }
  auto intact = durability::ReadWal(stream_path);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact.value().records.size(), 10u);

  // Every frame has the same size; flip a payload bit of the third.
  std::string bytes = ReadBytes(stream_path);
  const size_t frame_size = bytes.size() / 10;
  bytes[2 * frame_size + 12 + 20] ^= 0x10;
  std::filesystem::remove(stream_path);
  AppendBytes(stream_path, bytes);

  const auto expect_data_loss = [](const util::Status& status) {
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
        << status.ToString();
  };
  expect_data_loss(durability::ReadWal(stream_path).status());
  expect_data_loss(durability::TruncateTornTail(stream_path).status());
  expect_data_loss(durability::RecoverShard(dir, 0, user_count).status());
  expect_data_loss(
      durability::RecoverAllShards(dir, 1, user_count).status());
  EXPECT_EQ(ReadBytes(stream_path), bytes)
      << "recovery cut intact frames away behind a corrupt one";
}

// The checkpoint side of the same rule: a checksum-valid checkpoint whose
// region bytes no rectangle can hold is rejected like a torn one, and
// recovery falls back to the previous checkpoint plus WAL replay.
TEST(ShardedRecoveryTest, CheckpointWithHostileRegionFallsBackToPrevious) {
  const uint32_t user_count = SharedScenario().dataset.size();
  const geo::Rect good(0.25, 0.25, 0.5, 0.5);
  for (const double bad : {0.75, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string dir = FreshCaseDir("hostile_checkpoint_region");
    {
      cluster::Registry registry(user_count);
      auto durable = OneCommitStream(dir, &registry);
      ASSERT_TRUE(durable->CheckpointAll(1).ok());
      ASSERT_TRUE(durable->SetRegion(0, good).ok());
      ASSERT_TRUE(durable->CheckpointAll(2).ok());
    }
    // checkpoint-2 ends with the region's 32 bytes and the checksum; patch
    // min_x and re-seal, so only the decoder can reject the file.
    const std::string path = durability::CheckpointPath(
        durability::ShardCheckpointDir(dir, 0), 2);
    std::string body = ReadBytes(path);
    body.resize(body.size() - 8);
    PatchDouble(&body, body.size() - 32, bad);
    PutLe(&body, util::FnvHashBytes(body.data(), body.size()), 8);
    ASSERT_TRUE(durability::WriteCheckpointFile(path, body).ok());

    EXPECT_FALSE(durability::ReadShardCheckpoint(path).ok());
    auto recovered = durability::RecoverShard(dir, 0, user_count);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value().checkpoints_rejected, 1u);
    EXPECT_EQ(recovered.value().checkpoint_seq, 1u);
    ASSERT_EQ(recovered.value().clusters.size(), 1u);
    EXPECT_EQ(recovered.value().clusters[0].info.region, good);
  }
}

// Parallel recovery (one chunk per shard on the pool) reports a failing
// shard exactly as serial recovery does, and leaves its stream untouched.
TEST(ShardedRecoveryTest, ParallelRecoveryReportsAFailingShard) {
  const std::string dir = FreshCaseDir("parallel_failing_shard");
  ASSERT_FALSE(MustRun(DurableConfig(4, dir)).service.crashed);
  const std::string stream_path = durability::ShardWalPath(dir, 2);
  AppendBytes(stream_path, RetypedBatchFrame(1000, 9));
  const std::string before = ReadBytes(stream_path);

  const uint32_t user_count = SharedScenario().dataset.size();
  util::ThreadPool pool(4);
  auto serial = durability::RecoverAllShards(dir, kShards, user_count);
  auto parallel =
      durability::RecoverAllShards(dir, kShards, user_count, &pool);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
  EXPECT_EQ(ReadBytes(stream_path), before);
}

// Checkpoint discovery accepts only the names CheckpointPath() writes: a
// stray "checkpoint-007.ckpt" or a seq too long for u64 must neither raise
// max_checkpoint_seq (which numbers resumed checkpoints) nor change which
// checkpoint is restored.
TEST(ShardedRecoveryTest, NonCanonicalCheckpointNamesAreIgnored) {
  const std::string dir = FreshCaseDir("noncanonical_names");
  const ShardedServiceResult result = MustRun(DurableConfig(4, dir));
  ASSERT_GT(result.service.checkpoints_written, 0u);
  const uint32_t user_count = SharedScenario().dataset.size();
  auto clean = durability::RecoverShard(dir, 0, user_count);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_GT(clean.value().checkpoint_seq, 0u);

  const std::string shard_dir = durability::ShardCheckpointDir(dir, 0);
  const std::string valid = ReadBytes(durability::CheckpointPath(
      shard_dir, clean.value().checkpoint_seq));
  for (const char* name :
       {"checkpoint-007.ckpt", "checkpoint-18446744073709551621.ckpt",
        "checkpoint-99999999999999999999999.ckpt", "checkpoint-+9.ckpt",
        "checkpoint-9.ckpt.bak"}) {
    AppendBytes(shard_dir + "/" + name, valid);
  }

  auto strays = durability::RecoverShard(dir, 0, user_count);
  ASSERT_TRUE(strays.ok()) << strays.status().ToString();
  EXPECT_EQ(strays.value().max_checkpoint_seq,
            clean.value().max_checkpoint_seq);
  EXPECT_EQ(strays.value().checkpoint_seq, clean.value().checkpoint_seq);
  EXPECT_EQ(strays.value().checkpoints_rejected,
            clean.value().checkpoints_rejected);
  EXPECT_EQ(strays.value().clusters.size(), clean.value().clusters.size());
  EXPECT_EQ(strays.value().records_replayed,
            clean.value().records_replayed);
}

}  // namespace
}  // namespace nela::sim
