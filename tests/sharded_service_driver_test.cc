// Tests for the service driver across spatial shards: the determinism
// matrix (digests bit-identical across thread counts AND shard counts),
// golden pins of the closed-batch output at K=1 and K=4, cross-shard
// ownership accounting, per-shard admission queues, the per-shard WAL
// stream split, and durability-mode validation.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/hash.h"
#include "util/status.h"

namespace nela::sim {
namespace {

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.user_count = 1200;
    config.delta = 0.02;
    config.seed = 11;
    auto built = BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

ShardedServiceConfig ClosedBatchConfig(uint32_t threads, uint32_t shards) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = 192;
  config.service.threads = threads;
  config.service.master_seed = 99;
  config.service.workload_seed = 17;
  config.shards = shards;
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

std::string ConcatTraces(const std::vector<ServiceRequestRecord>& records) {
  std::string all;
  for (const ServiceRequestRecord& record : records) {
    all += "request " + std::to_string(record.ordinal) + " host=" +
           std::to_string(record.host) + "\n";
    all += record.trace;
  }
  return all;
}

// The tentpole determinism matrix: for a fixed master seed, the global
// registry digest is bit-identical across {1,4,8} threads AND {1,4,16}
// shards; the per-shard digests are thread-invariant for each K; and the
// concatenation of the K slices reproduces the global digest (the slices
// partition the registry).
TEST(ShardedServiceDriverTest, DigestMatrixIsThreadAndShardInvariant) {
  const uint64_t reference =
      MustRun(ClosedBatchConfig(1, 1)).service.registry_digest;

  for (uint32_t shards : {1u, 4u, 16u}) {
    std::vector<uint64_t> baseline_shard_digests;
    for (uint32_t threads : {1u, 4u, 8u}) {
      const ShardedServiceResult result =
          MustRun(ClosedBatchConfig(threads, shards));
      EXPECT_EQ(result.service.registry_digest, reference)
          << "global digest diverged at threads=" << threads
          << " shards=" << shards;
      EXPECT_EQ(result.concatenated_digest, result.service.registry_digest)
          << "shard slices do not partition the registry at threads="
          << threads << " shards=" << shards;
      ASSERT_EQ(result.shards.size(), shards);
      std::vector<uint64_t> shard_digests;
      for (const ShardRunStats& stats : result.shards) {
        shard_digests.push_back(stats.shard_digest);
      }
      if (baseline_shard_digests.empty()) {
        baseline_shard_digests = shard_digests;
      } else {
        EXPECT_EQ(shard_digests, baseline_shard_digests)
            << "per-shard digests diverged at threads=" << threads
            << " shards=" << shards;
      }
      EXPECT_TRUE(result.service.reciprocity_ok);
    }
  }
}

// Golden values of the closed batch at 4 threads, recorded before the
// classic single-shard driver and its single-file WAL were deleted. They
// pin the cluster output itself, not just agreement between two code
// paths. The registry and outcome digests are shard-count-invariant; the
// traces name shard facts, so their hash is per K.
struct GoldenPins {
  uint32_t shards;
  uint64_t registry_digest;
  uint64_t outcome_digest;
  uint64_t traces_fnv;
};

constexpr GoldenPins kSingleShardPins = {
    1, 0x7fae17db4d5db749ull, 0x8e580e7d2715c182ull, 0xbf24036549f99c83ull};
constexpr GoldenPins kFourShardPins = {
    4, 0x7fae17db4d5db749ull, 0x8e580e7d2715c182ull, 0x5c863ab89bf30a78ull};

uint64_t TracesFnv(const std::vector<ServiceRequestRecord>& records) {
  const std::string traces = ConcatTraces(records);
  return util::FnvHashBytes(traces.data(), traces.size());
}

void ExpectGoldenPins(const ShardedServiceResult& result,
                      const GoldenPins& pins) {
  EXPECT_EQ(result.service.registry_digest, pins.registry_digest)
      << "shards=" << pins.shards;
  EXPECT_EQ(result.service.outcome_digest, pins.outcome_digest)
      << "shards=" << pins.shards;
  EXPECT_EQ(TracesFnv(result.service.records), pins.traces_fnv)
      << "shards=" << pins.shards;
}

// The K=1 run reproduces, bit for bit, what the single-shard driver with
// the single-file WAL produced before it was folded into this one (the
// K=1 golden pins were recorded from it), and one shard owns everything.
TEST(ShardedServiceDriverTest, SingleShardMatchesServiceDriverBitForBit) {
  const ShardedServiceResult sharded = MustRun(ClosedBatchConfig(4, 1));
  ExpectGoldenPins(sharded, kSingleShardPins);
  EXPECT_EQ(sharded.cross_shard_clusters, 0u);
  EXPECT_EQ(sharded.cross_shard_handoffs, 0u);
  ASSERT_EQ(sharded.shards.size(), 1u);
  // The single shard owns every cluster and every user.
  EXPECT_EQ(sharded.shards[0].clusters_owned, sharded.service.clusters_formed);
  EXPECT_EQ(sharded.shards[0].users, SharedScenario().dataset.size());
}

// With a real spatial partition, clusters near the grid boundaries straddle
// shards; ownership accounting must tie out exactly against the global
// registry (every cluster owned by exactly one shard, every user homed in
// exactly one), and the output matches the K=4 golden pins.
TEST(ShardedServiceDriverTest, CrossShardOwnershipAccountingTiesOut) {
  const ShardedServiceResult result = MustRun(ClosedBatchConfig(4, 4));
  ExpectGoldenPins(result, kFourShardPins);
  const uint32_t user_count = SharedScenario().dataset.size();

  uint64_t users = 0;
  uint64_t owned = 0;
  uint64_t cross_owned = 0;
  uint64_t routed = 0;
  for (const ShardRunStats& stats : result.shards) {
    users += stats.users;
    owned += stats.clusters_owned;
    cross_owned += stats.cross_shard_clusters_owned;
    routed += stats.requests_routed;
  }
  EXPECT_EQ(users, user_count);
  EXPECT_EQ(owned, result.service.clusters_formed);
  EXPECT_EQ(cross_owned, result.cross_shard_clusters);
  EXPECT_EQ(routed, result.service.records.size());
  // A uniform population on a 2x2 grid forms boundary clusters; if none
  // crossed, the partition (or the ownership rule) is broken.
  EXPECT_GT(result.cross_shard_clusters, 0u);
  EXPECT_GT(result.cross_shard_handoffs, 0u);
  EXPECT_TRUE(result.service.reciprocity_ok);
}

// Per-shard bounded admission: under sustained overload each shard's queue
// sheds independently, and the per-shard admission/shed/wait accounting
// sums exactly to the global one.
TEST(ShardedServiceDriverTest, PerShardAdmissionQueuesShedAndTieOut) {
  ShardedServiceConfig config = ClosedBatchConfig(4, 4);
  config.service.offered_rate_per_ms = 8.0;  // sustainable is ~4/ms total
  config.service.service_time_ms = 1.0;
  config.service.queue_capacity = 6;
  config.service.deadline_ms = 12.0;
  const ShardedServiceResult result = MustRun(config);

  uint64_t admitted = 0;
  uint64_t shed_overflow = 0;
  uint64_t shed_deadline = 0;
  for (const ShardRunStats& stats : result.shards) {
    admitted += stats.admitted;
    shed_overflow += stats.shed_queue_overflow;
    shed_deadline += stats.shed_deadline;
    EXPECT_LE(stats.p50_queue_wait_ms, stats.p99_queue_wait_ms);
    EXPECT_LE(stats.p99_queue_wait_ms, config.service.deadline_ms);
  }
  EXPECT_EQ(admitted, result.service.admitted);
  EXPECT_EQ(shed_overflow, result.service.shed_queue_overflow);
  EXPECT_EQ(shed_deadline, result.service.shed_deadline);
  EXPECT_GT(result.service.shed_queue_overflow +
                result.service.shed_deadline,
            0u)
      << "2x overload must shed";
  EXPECT_GT(result.service.admitted, 0u);
}

// Sharded durability splits the log across per-shard streams whose record
// counts sum to the global WAL accounting.
TEST(ShardedServiceDriverTest, WalStreamsSplitAcrossShards) {
  const std::string dir =
      ::testing::TempDir() + "sharded_service_wal_split";
  std::filesystem::remove_all(dir);
  ShardedServiceConfig config = ClosedBatchConfig(4, 4);
  config.durability_dir = dir;
  config.service.checkpoint_interval = 8;
  const ShardedServiceResult result = MustRun(config);

  EXPECT_FALSE(result.service.crashed);
  EXPECT_GT(result.service.wal_records, 0u);
  EXPECT_GT(result.service.checkpoints_written, 0u);
  uint64_t stream_sum = 0;
  uint32_t streams_used = 0;
  for (const ShardRunStats& stats : result.shards) {
    stream_sum += stats.wal_records;
    if (stats.wal_records > 0) ++streams_used;
  }
  EXPECT_EQ(stream_sum, result.service.wal_records);
  EXPECT_GT(streams_used, 1u)
      << "a 2x2 partition of a uniform population must log on several "
         "streams";
  // Durability is write-through: it must not change what gets clustered.
  EXPECT_EQ(result.service.registry_digest,
            MustRun(ClosedBatchConfig(4, 4)).service.registry_digest);
}

// Durability-mode validation: checkpointing needs the durability
// directory, and a resume needs that directory plus recovered state for
// exactly the configured shard count.
TEST(ShardedServiceDriverTest, RejectsConflictingDurabilityModes) {
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  const auto driver_for = [&](const ShardedServiceConfig& config) {
    return ShardedServiceDriver(scenario.dataset, scenario.graph,
                                core::MakeSecurePolicyFactory(params),
                                config);
  };

  ShardedServiceConfig checkpoint_only = ClosedBatchConfig(1, 1);
  checkpoint_only.service.checkpoint_interval = 4;
  EXPECT_FALSE(driver_for(checkpoint_only).Run().ok());

  durability::ShardedRecoveredState four_shards;
  four_shards.user_count = scenario.dataset.size();
  four_shards.shards.resize(4);
  EXPECT_FALSE(driver_for(ClosedBatchConfig(1, 4)).Resume(four_shards).ok())
      << "resume without a durability directory";

  ShardedServiceConfig durable_one = ClosedBatchConfig(1, 1);
  durable_one.durability_dir =
      ::testing::TempDir() + "sharded_service_resume_mismatch";
  EXPECT_FALSE(driver_for(durable_one).Resume(four_shards).ok())
      << "resume with state recovered for a different shard count";
}

}  // namespace
}  // namespace nela::sim
