// Per-shard recovery: a clean multi-shard run recovers to its final
// registry (serially and in parallel, whole or one shard at a time), and
// recovery refuses hostile directory contents -- a checksum-valid WAL
// frame that does not decode, or checkpoint files with non-canonical
// names. The crash matrix lives in recovery_kill_anywhere_test.

#include <cstdint>
#include <filesystem>
#include <fstream>
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

// A checksum-valid frame can only come from a complete append, so one that
// does not decode (a retired or unknown type byte) is corruption, not a
// torn tail: reading, truncating and recovering must all fail and leave the
// stream byte-identical -- never cut it back and drop the intact commit
// logged after the bad frame.
TEST(ShardedRecoveryTest, ChecksumValidUndecodableFrameIsAnError) {
  const uint32_t user_count = SharedScenario().dataset.size();
  for (const uint8_t type : {uint8_t{1}, uint8_t{9}}) {
    const std::string dir =
        FreshCaseDir("undecodable_type" + std::to_string(type));
    const std::string stream_path = durability::ShardWalPath(dir, 0);
    {
      cluster::Registry registry(user_count);
      auto durable = durability::ShardedDurableRegistry::Open(
          &registry, dir, 1, nullptr, {1}, {}, /*truncate=*/true);
      ASSERT_TRUE(durable.ok()) << durable.status().ToString();
      cluster::ClusterInfo info;
      info.members = {1, 2, 3, 4, 5};
      info.connectivity = 0.5;
      ASSERT_TRUE(durable.value()->RegisterBatch(0, {info}).ok());
    }
    // lsn 2: a batch payload whose type byte (after the u64 lsn) is
    // replaced, framed with a correct checksum.
    durability::WalRecord batch;
    batch.lsn = 2;
    batch.clusters = {{{6, 7, 8, 9, 10}, 0.5, true}};
    std::string payload = durability::EncodeWalRecord(batch);
    payload[8] = static_cast<char>(type);
    AppendBytes(stream_path, ChecksumValidFrame(payload));
    {
      auto writer =
          durability::WalWriter::Open(stream_path, /*truncate=*/false);
      ASSERT_TRUE(writer.ok());
      durability::WalRecord region;
      region.lsn = 3;
      region.type = durability::WalRecordType::kSetRegion;
      region.cluster_id = 0;
      region.region = geo::Rect(0.25, 0.25, 0.5, 0.5);
      ASSERT_TRUE(writer.value()->Append(region).ok());
    }
    const std::string before = ReadBytes(stream_path);

    EXPECT_FALSE(durability::ReadWal(stream_path).ok()) << "type " << +type;
    EXPECT_FALSE(durability::TruncateTornTail(stream_path).ok())
        << "type " << +type;
    EXPECT_FALSE(durability::RecoverShard(dir, 0, user_count).ok())
        << "type " << +type;
    EXPECT_FALSE(durability::RecoverAllShards(dir, 1, user_count).ok())
        << "type " << +type;
    EXPECT_EQ(ReadBytes(stream_path), before)
        << "a failed recovery modified the stream (type " << +type << ")";
  }
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
