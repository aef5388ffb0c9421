// Kill-anywhere chaos coverage: a scheduled process crash at any of the
// commit-path crash points (pre-commit, mid-WAL-append, post-commit,
// mid-checkpoint), at any shard count and thread count, must leave
// per-shard disk state that recovery rebuilds exactly -- and resuming the
// workload from the recovered registry must converge to the bit-identical
// digest of a run that never crashed. Recovery itself is idempotent
// (recovering twice, serially or in parallel, yields the same registry)
// and per-shard: at most one stream carries a torn record, and recovering
// it leaves every intact sibling shard byte-identical on disk.

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "durability/shard_layout.h"
#include "durability/sharded_recovery.h"
#include "net/fault_plan.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nela::sim {
namespace {

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
  config.service.checkpoint_interval = 4;
  config.shards = shards;
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
  const std::string dir = ::testing::TempDir() + "kill_anywhere_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Digest of an uninterrupted run of the same workload. Computed without
// durability: write-ahead logging is write-through, so it must not change
// how the registry evolves (RecoverAfterCleanRun pins the durable variant),
// and the digest is shard-count-invariant.
uint64_t UninterruptedDigest() {
  static const uint64_t digest = [] {
    ShardedServiceConfig config = DurableConfig(1, 4, "");
    config.service.checkpoint_interval = 0;
    return MustRun(config).service.registry_digest;
  }();
  return digest;
}

util::Result<std::unique_ptr<cluster::Registry>> RecoverRegistry(
    const std::string& dir, uint32_t shards) {
  auto recovered = durability::RecoverAllShards(
      dir, shards, SharedScenario().dataset.size());
  if (!recovered.ok()) return recovered.status();
  return durability::AssembleRegistry(recovered.value());
}

// Byte snapshot of every file under one shard's durable-state directory.
std::map<std::string, std::string> SnapshotShardFiles(
    const std::string& base_dir, uint32_t shard) {
  std::map<std::string, std::string> files;
  const std::filesystem::path dir = durability::ShardDir(base_dir, shard);
  if (!std::filesystem::exists(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

std::vector<uint64_t> ShardNextLsns(
    const durability::ShardedRecoveredState& state) {
  std::vector<uint64_t> lsns;
  for (const durability::ShardRecoveredState& shard : state.shards) {
    lsns.push_back(shard.next_lsn);
  }
  return lsns;
}

// Recovering right after a clean durable run reproduces the final registry:
// the WAL and checkpoints together carry the complete state.
TEST(RecoveryKillAnywhereTest, RecoverAfterCleanRunReproducesFinalState) {
  const std::string dir = FreshCaseDir("clean");
  const ShardedServiceResult result = MustRun(DurableConfig(1, 4, dir));
  ASSERT_FALSE(result.service.crashed);
  EXPECT_EQ(result.service.registry_digest, UninterruptedDigest());
  EXPECT_GT(result.service.wal_records, 0u);
  EXPECT_GT(result.service.checkpoints_written, 0u);

  auto recovered = durability::RecoverAllShards(
      dir, 1, SharedScenario().dataset.size());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().TotalTornBytes(), 0u);
  auto registry = durability::AssembleRegistry(recovered.value());
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry.value()->Digest(), result.service.registry_digest);
}

struct KillCase {
  net::ProcessCrashPoint point;
  uint64_t after_hits;
};

// (crash point, shards, threads).
using KillParam = std::tuple<KillCase, uint32_t, uint32_t>;

class KillAnywhereTest : public ::testing::TestWithParam<KillParam> {};

TEST_P(KillAnywhereTest, CrashRecoverResumeConvergesToUninterruptedDigest) {
  const KillCase kill = std::get<0>(GetParam());
  const uint32_t shards = std::get<1>(GetParam());
  const uint32_t threads = std::get<2>(GetParam());
  const std::string dir = FreshCaseDir(
      std::string(net::ProcessCrashPointName(kill.point)) + "_s" +
      std::to_string(shards) + "_t" + std::to_string(threads));

  ShardedServiceConfig config = DurableConfig(shards, threads, dir);
  config.service.fault_plan.process_crashes.push_back(
      net::ProcessCrashEvent{kill.point, kill.after_hits});
  const ShardedServiceResult crashed = MustRun(config);
  ASSERT_TRUE(crashed.service.crashed);
  ASSERT_TRUE(crashed.service.crash_point.has_value());
  EXPECT_EQ(*crashed.service.crash_point, kill.point);
  // Every admitted request the crash cut short is reported as a structured
  // abort, never silently dropped.
  uint64_t aborted = 0;
  for (const ServiceRequestRecord& record : crashed.service.records) {
    if (!record.aborted_by_crash) continue;
    ++aborted;
    EXPECT_FALSE(record.outcome.anonymity_satisfied);
    EXPECT_EQ(record.outcome.degradation.failure_code,
              util::StatusCode::kUnavailable);
    EXPECT_EQ(record.outcome.degradation.finalize_count, 1u);
  }
  EXPECT_EQ(aborted, crashed.service.aborted_by_crash);
  EXPECT_GT(aborted, 0u) << "crash fired too late to abort anything";

  // Snapshot every shard's files as the crash left them.
  std::vector<std::map<std::string, std::string>> before;
  for (uint32_t shard = 0; shard < shards; ++shard) {
    before.push_back(SnapshotShardFiles(dir, shard));
  }

  // Recovery is a pure, per-shard function of the on-disk files: two
  // recoveries agree bit for bit, serial or parallel.
  const uint32_t user_count = SharedScenario().dataset.size();
  auto first = durability::RecoverAllShards(dir, shards, user_count);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  util::ThreadPool pool(4);
  auto second = durability::RecoverAllShards(dir, shards, user_count, &pool);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ShardNextLsns(first.value()), ShardNextLsns(second.value()));
  auto first_registry = durability::AssembleRegistry(first.value());
  ASSERT_TRUE(first_registry.ok()) << first_registry.status().ToString();
  auto second_registry = durability::AssembleRegistry(second.value());
  ASSERT_TRUE(second_registry.ok());
  EXPECT_EQ(first_registry.value()->Digest(),
            second_registry.value()->Digest());

  // One turnstile commit lands in exactly one stream, so at most ONE shard
  // can carry a torn record; the crash is a single-shard event.
  uint32_t torn_shards = 0;
  uint32_t rejected = 0;
  for (const durability::ShardRecoveredState& shard : first.value().shards) {
    if (shard.torn_bytes_discarded > 0) ++torn_shards;
    rejected += shard.checkpoints_rejected;
  }
  EXPECT_LE(torn_shards, 1u);
  if (kill.point == net::ProcessCrashPoint::kMidWalAppend) {
    EXPECT_EQ(torn_shards, 1u);
    // The first recovery truncated the torn tail; the second saw clean
    // streams everywhere.
    EXPECT_EQ(second.value().TotalTornBytes(), 0u);
  }
  if (kill.point == net::ProcessCrashPoint::kMidCheckpoint) {
    EXPECT_GE(rejected, 1u);
  }

  // Sibling isolation: recovering the crashed shard leaves every shard
  // whose stream was NOT torn byte-identical on disk (recovery only ever
  // mutates a torn tail, and only in the shard that owns it).
  for (uint32_t shard = 0; shard < shards; ++shard) {
    if (first.value().shards[shard].torn_bytes_discarded > 0) continue;
    EXPECT_EQ(SnapshotShardFiles(dir, shard), before[shard])
        << "recovery touched intact shard " << shard;
  }

  // Resume the same workload on the recovered registry (crash disarmed):
  // committed work resolves as reuse, the rest re-executes with the same
  // per-request sub-streams, and the digest converges to the uninterrupted
  // run's.
  ShardedServiceConfig resume_config = config;
  resume_config.service.fault_plan.process_crashes.clear();
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  ShardedServiceDriver resumed_driver(scenario.dataset, scenario.graph,
                                      core::MakeSecurePolicyFactory(params),
                                      resume_config);
  auto resumed = resumed_driver.Resume(second.value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed.value().service.crashed);
  EXPECT_EQ(resumed.value().service.registry_digest, UninterruptedDigest())
      << "resumed digest diverged after a "
      << net::ProcessCrashPointName(kill.point) << " crash at shards="
      << shards << " threads=" << threads;
  EXPECT_EQ(resumed.value().concatenated_digest,
            resumed.value().service.registry_digest);

  // The resumed run's files recover to the same final registry.
  auto final_registry = RecoverRegistry(dir, shards);
  ASSERT_TRUE(final_registry.ok()) << final_registry.status().ToString();
  EXPECT_EQ(final_registry.value()->Digest(), UninterruptedDigest());
}

INSTANTIATE_TEST_SUITE_P(
    AllPointsAllThreadCounts, KillAnywhereTest,
    ::testing::Combine(
        ::testing::Values(
            KillCase{net::ProcessCrashPoint::kPreCommit, 5},
            KillCase{net::ProcessCrashPoint::kMidWalAppend, 5},
            KillCase{net::ProcessCrashPoint::kPostCommit, 5},
            KillCase{net::ProcessCrashPoint::kMidCheckpoint, 2}),
        ::testing::Values(1u, 4u), ::testing::Values(1u, 4u, 8u)),
    [](const ::testing::TestParamInfo<KillParam>& param_info) {
      std::string name =
          net::ProcessCrashPointName(std::get<0>(param_info.param).point);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(param_info.param)) +
             "_t" + std::to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace nela::sim
