// Checkpoint fast path: each stream's checkpoint entries are cached
// encoded, streams that have not moved are not cut again, and every stream
// keeps two checkpoints on disk. With writes deferred (the service's
// mode), CheckpointAll only queues its cuts and the writer writes them.
//
// The differential test runs the service with a CutAudit installed: at
// every cut, the stream's newest checkpoint file must equal
// EncodeShardCheckpoint of the image read back out of the registry (the
// encoder the cache replaced), on fresh and resumed runs at shards {1, 4}
// and threads {1, 4}. Built a second time with
// NELA_TEST_MUTANT_UNPATCHED_REGION (checkpoint_cache_mutant_test), the
// durable registry's SetRegion leaves the cached entry unpatched, and the
// same test must see the mismatch.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "core/policy_factory.h"
#include "durability/checkpoint.h"
#include "durability/crash_scheduler.h"
#include "durability/shard_layout.h"
#include "durability/sharded_durable_registry.h"
#include "durability/sharded_recovery.h"
#include "geo/rect.h"
#include "net/fault_plan.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/status.h"

namespace nela::sim {
namespace {

#ifdef NELA_TEST_MUTANT_UNPATCHED_REGION
constexpr bool kMutant = true;
#else
constexpr bool kMutant = false;
#endif

constexpr uint32_t kRequests = 96;

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

ShardedServiceConfig DurableConfig(uint32_t shards, uint32_t threads,
                                   const std::string& dir) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = kRequests;
  config.service.threads = threads;
  config.service.master_seed = 99;
  config.service.workload_seed = 17;
  config.service.checkpoint_interval = 2;
  config.shards = shards;
  config.durability_dir = dir;
  return config;
}

ShardedServiceDriver MakeDriver(const ShardedServiceConfig& config) {
  const Scenario& scenario = SharedScenario();
  return ShardedServiceDriver(
      scenario.dataset, scenario.graph,
      core::MakeSecurePolicyFactory(core::BoundingParams()), config);
}

ShardedServiceResult MustRun(const ShardedServiceConfig& config) {
  auto result = MakeDriver(config).Run();
  NELA_CHECK(result.ok());
  return std::move(result).value();
}

std::string FreshCaseDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "checkpoint_cache_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Digest of an uninterrupted run of the same workload (no durability; the
// digest is shard-count-invariant).
uint64_t UninterruptedDigest() {
  static const uint64_t digest = [] {
    ShardedServiceConfig config = DurableConfig(1, 4, "");
    config.service.checkpoint_interval = 0;
    return MustRun(config).service.registry_digest;
  }();
  return digest;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Installs a CutAudit for its lifetime and tallies what it saw.
class CutAuditTally {
 public:
  CutAuditTally() {
    durability::ShardedDurableRegistry::SetCutAuditForTesting(
        [this](uint32_t /*stream*/, const std::string& newest,
               const std::string& reference) {
          ++audits_;
          if (ReadBytes(newest) != reference) ++mismatches_;
          auto image = durability::ReadShardCheckpoint(newest);
          if (!image.ok()) return;
          for (const durability::ShardCheckpointCluster& entry :
               image.value().clusters) {
            if (entry.info.region.has_value()) ++regions_seen_;
          }
        });
  }
  ~CutAuditTally() {
    durability::ShardedDurableRegistry::SetCutAuditForTesting(nullptr);
  }
  CutAuditTally(const CutAuditTally&) = delete;
  CutAuditTally& operator=(const CutAuditTally&) = delete;

  uint64_t audits() const { return audits_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t regions_seen() const { return regions_seen_; }

 private:
  // CheckpointAll runs under the durable registry's lock, so the audit is
  // never called concurrently.
  uint64_t audits_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t regions_seen_ = 0;
};

// The cache must be invisible on disk: a correct cache matches the
// reference at every cut (and the mutant must not).
void ExpectCacheMatchesReference(const CutAuditTally& tally) {
  EXPECT_GT(tally.audits(), 0u);
  if (kMutant) {
    EXPECT_GT(tally.mismatches(), 0u)
        << "the unpatched-region mutant went undetected";
  } else {
    EXPECT_EQ(tally.mismatches(), 0u);
    EXPECT_GT(tally.regions_seen(), 0u)
        << "no audited checkpoint carried a region";
  }
}

// (shards, threads).
using CacheParam = std::tuple<uint32_t, uint32_t>;

class CheckpointCacheDifferentialTest
    : public ::testing::TestWithParam<CacheParam> {};

TEST_P(CheckpointCacheDifferentialTest, FreshRunCutsMatchRegistryImage) {
  const auto [shards, threads] = GetParam();
  const std::string dir = FreshCaseDir(
      "fresh_s" + std::to_string(shards) + "_t" + std::to_string(threads));
  CutAuditTally tally;
  const ShardedServiceResult result =
      MustRun(DurableConfig(shards, threads, dir));
  ASSERT_FALSE(result.service.crashed);
  EXPECT_EQ(result.service.registry_digest, UninterruptedDigest());
  ExpectCacheMatchesReference(tally);
}

TEST_P(CheckpointCacheDifferentialTest, ResumedRunCutsMatchRegistryImage) {
  const auto [shards, threads] = GetParam();
  const std::string dir = FreshCaseDir(
      "resumed_s" + std::to_string(shards) + "_t" + std::to_string(threads));
  ShardedServiceConfig config = DurableConfig(shards, threads, dir);
  config.service.fault_plan.process_crashes.push_back(
      net::ProcessCrashEvent{net::ProcessCrashPoint::kPostCommit, 12});
  ASSERT_TRUE(MustRun(config).service.crashed);

  auto recovered = durability::RecoverAllShards(
      dir, shards, SharedScenario().dataset.size());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  config.service.fault_plan.process_crashes.clear();
  // The resumed instance's cache starts from the recovered registry.
  CutAuditTally tally;
  auto resumed = MakeDriver(config).Resume(recovered.value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed.value().service.crashed);
  EXPECT_EQ(resumed.value().service.registry_digest, UninterruptedDigest());
  ExpectCacheMatchesReference(tally);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsThreads, CheckpointCacheDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 4u), ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<CacheParam>& param_info) {
      std::string name = "s";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_t";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

#ifndef NELA_TEST_MUTANT_UNPATCHED_REGION

std::vector<uint64_t> SeqsOnDisk(const std::string& dir, uint32_t shard) {
  auto seqs = durability::ListCheckpointSeqs(
      durability::ShardCheckpointDir(dir, shard));
  NELA_CHECK(seqs.ok());
  return std::move(seqs).value();
}

uint64_t AssembledDigestOf(durability::ShardRecoveredState shard,
                           uint32_t user_count) {
  durability::ShardedRecoveredState state;
  state.user_count = user_count;
  state.shards.push_back(std::move(shard));
  auto registry = durability::AssembleRegistry(state);
  NELA_CHECK(registry.ok());
  return registry.value()->Digest();
}

// One shard driven directly: a cut of a stream that has not moved writes
// no file, and each written cut prunes the stream to two checkpoints.
TEST(CheckpointRetentionTest, SkipsUnmovedStreamsAndKeepsTwo) {
  const std::string dir = FreshCaseDir("unit");
  const uint32_t user_count = SharedScenario().dataset.size();
  cluster::Registry registry(user_count);
  auto opened = durability::ShardedDurableRegistry::Open(
      &registry, dir, 1, nullptr, {1}, {}, /*truncate=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  durability::ShardedDurableRegistry& durable = *opened.value();

  cluster::ClusterInfo info;
  info.members = {5, 3, 1};
  info.connectivity = 0.5;
  ASSERT_TRUE(durable.RegisterBatch(0, {info}).ok());
  ASSERT_TRUE(durable.CheckpointAll(1).ok());
  ASSERT_TRUE(durable.CheckpointAll(2).ok());  // nothing moved
  EXPECT_EQ(SeqsOnDisk(dir, 0), (std::vector<uint64_t>{1}));

  ASSERT_TRUE(durable.SetRegion(0, geo::Rect(0.25, 0.25, 0.5, 0.5)).ok());
  ASSERT_TRUE(durable.CheckpointAll(3).ok());
  EXPECT_EQ(SeqsOnDisk(dir, 0), (std::vector<uint64_t>{1, 3}));
  info.members = {7, 8, 9};
  ASSERT_TRUE(durable.RegisterBatch(0, {info}).ok());
  ASSERT_TRUE(durable.CheckpointAll(4).ok());
  EXPECT_EQ(SeqsOnDisk(dir, 0), (std::vector<uint64_t>{3, 4}));

  auto recovered = durability::RecoverShard(dir, 0, user_count);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().checkpoint_seq, 4u);
  EXPECT_EQ(recovered.value().records_replayed, 0u);
  ASSERT_EQ(recovered.value().clusters.size(), 2u);
  EXPECT_EQ(recovered.value().clusters[0].info.members,
            (std::vector<graph::VertexId>{1, 3, 5}));
  EXPECT_TRUE(recovered.value().clusters[0].info.region.has_value());
}

// Deferred writes: CheckpointAll only queues, the writer writes, and a
// cut overtaken by a newer one of the same stream is never written.
TEST(CheckpointRetentionTest, DeferredCutsWaitForTheWriter) {
  const std::string dir = FreshCaseDir("deferred");
  const uint32_t user_count = SharedScenario().dataset.size();
  cluster::Registry registry(user_count);
  auto opened = durability::ShardedDurableRegistry::Open(
      &registry, dir, 1, nullptr, {1}, {}, /*truncate=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  durability::ShardedDurableRegistry& durable = *opened.value();
  durable.DeferCutWrites();

  cluster::ClusterInfo info;
  info.members = {5, 3, 1};
  info.connectivity = 0.5;
  ASSERT_TRUE(durable.RegisterBatch(0, {info}).ok());
  ASSERT_TRUE(durable.CheckpointAll(1).ok());
  EXPECT_TRUE(SeqsOnDisk(dir, 0).empty());
  ASSERT_TRUE(durable.SetRegion(0, geo::Rect(0.25, 0.25, 0.5, 0.5)).ok());
  ASSERT_TRUE(durable.CheckpointAll(2).ok());
  EXPECT_TRUE(SeqsOnDisk(dir, 0).empty());
  ASSERT_TRUE(durable.WriteQueuedCuts().ok());
  EXPECT_EQ(SeqsOnDisk(dir, 0), (std::vector<uint64_t>{2}));

  info.members = {7, 8, 9};
  ASSERT_TRUE(durable.RegisterBatch(0, {info}).ok());
  ASSERT_TRUE(durable.CheckpointAll(3).ok());
  ASSERT_TRUE(durable.DrainCuts().ok());
  EXPECT_EQ(SeqsOnDisk(dir, 0), (std::vector<uint64_t>{2, 3}));

  auto recovered = durability::RecoverShard(dir, 0, user_count);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().checkpoint_seq, 3u);
  EXPECT_EQ(recovered.value().records_replayed, 0u);
  EXPECT_EQ(AssembledDigestOf(recovered.value(), user_count),
            registry.Digest());
}

// A kMidCheckpoint crash writes the queued cuts before it tears the file,
// as it would with the writes on the commit path.
TEST(CheckpointRetentionTest, MidCheckpointCrashWritesQueuedCutsFirst) {
  const std::string dir = FreshCaseDir("deferred_crash");
  const uint32_t user_count = SharedScenario().dataset.size();
  cluster::Registry registry(user_count);
  durability::CrashPointScheduler crash({net::ProcessCrashEvent{
      net::ProcessCrashPoint::kMidCheckpoint, 2}});
  auto opened = durability::ShardedDurableRegistry::Open(
      &registry, dir, 1, &crash, {1}, {}, /*truncate=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  durability::ShardedDurableRegistry& durable = *opened.value();
  durable.DeferCutWrites();

  cluster::ClusterInfo info;
  info.members = {5, 3, 1};
  info.connectivity = 0.5;
  ASSERT_TRUE(durable.RegisterBatch(0, {info}).ok());
  ASSERT_TRUE(durable.CheckpointAll(1).ok());
  info.members = {7, 8, 9};
  ASSERT_TRUE(durable.RegisterBatch(0, {info}).ok());
  ASSERT_FALSE(durable.CheckpointAll(2).ok());
  EXPECT_EQ(SeqsOnDisk(dir, 0), (std::vector<uint64_t>{1, 2}));

  auto recovered = durability::RecoverShard(dir, 0, user_count);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().checkpoint_seq, 1u);
  EXPECT_EQ(recovered.value().checkpoints_rejected, 1u);
  EXPECT_EQ(recovered.value().records_replayed, 1u);
  EXPECT_EQ(AssembledDigestOf(recovered.value(), user_count),
            registry.Digest());
}

TEST(CheckpointRetentionTest, CleanRunLeavesAtMostTwoPerShard) {
  for (const uint32_t shards : {1u, 4u}) {
    const std::string dir = FreshCaseDir("clean_s" + std::to_string(shards));
    const ShardedServiceResult result = MustRun(DurableConfig(shards, 4, dir));
    ASSERT_FALSE(result.service.crashed);
    EXPECT_GT(result.service.checkpoints_written, 2u);
    for (uint32_t shard = 0; shard < shards; ++shard) {
      const std::vector<uint64_t> seqs = SeqsOnDisk(dir, shard);
      EXPECT_GE(seqs.size(), 1u) << "shard " << shard;
      EXPECT_LE(seqs.size(), 2u) << "shard " << shard;
    }
    auto recovered = durability::RecoverAllShards(
        dir, shards, SharedScenario().dataset.size());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    auto registry = durability::AssembleRegistry(recovered.value());
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    EXPECT_EQ(registry.value()->Digest(), result.service.registry_digest);
  }
}

// A resumed run seeds its kept lists from the directories, so the files a
// crashed run left behind -- its torn checkpoint included -- are pruned.
TEST(CheckpointRetentionTest, ResumePrunesCheckpointsTheCrashLeft) {
  constexpr uint32_t kShards = 4;
  const std::string dir = FreshCaseDir("mid_checkpoint");
  ShardedServiceConfig config = DurableConfig(kShards, 4, dir);
  // Several whole cuts, then a tear.
  config.service.fault_plan.process_crashes.push_back(
      net::ProcessCrashEvent{net::ProcessCrashPoint::kMidCheckpoint, 14});
  const ShardedServiceResult crashed = MustRun(config);
  ASSERT_TRUE(crashed.service.crashed);
  ASSERT_EQ(*crashed.service.crash_point,
            net::ProcessCrashPoint::kMidCheckpoint);

  // Two whole checkpoints per shard, plus the torn one in one shard.
  size_t files = 0;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    const size_t count = SeqsOnDisk(dir, shard).size();
    EXPECT_LE(count, 3u) << "shard " << shard;
    files += count;
  }
  EXPECT_LE(files, 2u * kShards + 1);
  auto recovered = durability::RecoverAllShards(
      dir, kShards, SharedScenario().dataset.size());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  uint32_t rejected = 0;
  for (const durability::ShardRecoveredState& shard :
       recovered.value().shards) {
    rejected += shard.checkpoints_rejected;
  }
  EXPECT_EQ(rejected, 1u) << "the torn checkpoint is the only bad file";

  config.service.fault_plan.process_crashes.clear();
  auto resumed = MakeDriver(config).Resume(recovered.value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed.value().service.crashed);
  EXPECT_EQ(resumed.value().service.registry_digest, UninterruptedDigest());

  const uint64_t crash_seq = recovered.value().MaxCheckpointSeq();
  uint32_t shards_fully_pruned = 0;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    const std::vector<uint64_t> after = SeqsOnDisk(dir, shard);
    EXPECT_LE(after.size(), 2u) << "shard " << shard;
    size_t pre_crash = 0;
    for (uint64_t seq : after) {
      if (seq <= crash_seq) ++pre_crash;
    }
    // Two post-crash cuts of a stream leave none of its older files.
    if (after.size() - pre_crash >= 2) {
      EXPECT_EQ(pre_crash, 0u) << "shard " << shard;
    }
    if (pre_crash == 0) ++shards_fully_pruned;
  }
  EXPECT_GT(shards_fully_pruned, 0u);

  auto final_state = durability::RecoverAllShards(
      dir, kShards, SharedScenario().dataset.size());
  ASSERT_TRUE(final_state.ok()) << final_state.status().ToString();
  auto registry = durability::AssembleRegistry(final_state.value());
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry.value()->Digest(), UninterruptedDigest());
}

// With both kept checkpoints unreadable, recovery replays the whole WAL,
// which pruning never touches.
TEST(CheckpointRetentionTest, BothKeptCheckpointsCorruptReplaysWholeWal) {
  const std::string dir = FreshCaseDir("both_corrupt");
  const ShardedServiceResult result = MustRun(DurableConfig(1, 4, dir));
  ASSERT_FALSE(result.service.crashed);
  const std::vector<uint64_t> seqs = SeqsOnDisk(dir, 0);
  ASSERT_EQ(seqs.size(), 2u);
  for (uint64_t seq : seqs) {
    const std::string path = durability::CheckpointPath(
        durability::ShardCheckpointDir(dir, 0), seq);
    std::string bytes = ReadBytes(path);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    ASSERT_TRUE(durability::WriteCheckpointFile(path, bytes).ok());
  }

  auto recovered =
      durability::RecoverShard(dir, 0, SharedScenario().dataset.size());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().checkpoints_rejected, 2u);
  EXPECT_EQ(recovered.value().checkpoint_seq, 0u);
  EXPECT_EQ(recovered.value().records_skipped, 0u);
  EXPECT_EQ(recovered.value().records_replayed, result.service.wal_records);
  durability::ShardedRecoveredState state;
  state.user_count = SharedScenario().dataset.size();
  state.shards.push_back(std::move(recovered).value());
  auto registry = durability::AssembleRegistry(state);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry.value()->Digest(), result.service.registry_digest);
}

#endif  // NELA_TEST_MUTANT_UNPATCHED_REGION

}  // namespace
}  // namespace nela::sim
