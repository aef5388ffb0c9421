// Chaos tests: the cloaking pipeline under injected message loss, link
// timeouts, and node churn (ctest label: chaos).
//
// Three invariants are enforced on every failure path:
//   1. the cloaked region, when produced, encloses every surviving member;
//   2. no status or degradation message ever carries a coordinate;
//   3. a fixed fault seed reproduces the run bit-for-bit.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bounding/protocol.h"
#include "bounding/secret.h"
#include "cluster/distributed_tconn.h"
#include "core/cloaking_engine.h"
#include "core/policy_factory.h"
#include "data/generators.h"
#include "graph/wpg_builder.h"
#include "net/network.h"
#include "net/retry.h"
#include "audit/observer.h"
#include "audit/taint.h"
#include "core/anonymity_audit.h"
#include "scenario_fixtures.h"
#include "sim/chaos_experiment.h"
#include "sim/scenario.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace nela {
namespace {

using fixtures::ExpectNoCoordinateLeak;
using fixtures::FirstPoints;
using fixtures::Iota;
using fixtures::MakeWorld;
using fixtures::SmallWorld;
using fixtures::SmallWorldBounding;

TEST(ChaosBoundingTest, LossyNetworkYieldsCleanNetworkRegion) {
  SmallWorld world = MakeWorld(1);
  const std::vector<geo::Point> points = FirstPoints(world.dataset, 12);
  const geo::Point reference = points[0];
  const core::PolicyFactory factory =
      core::MakeSecurePolicyFactory(SmallWorldBounding());

  auto clean_policy = factory(12);
  auto clean = bounding::ComputeCloakedRegion(points, reference, *clean_policy);
  ASSERT_TRUE(clean.ok());

  net::Network network(200);
  net::FaultPlan plan;
  plan.seed = 1234;
  plan.loss_probability = 0.05;
  ASSERT_TRUE(network.InstallFaultPlan(plan).ok());
  const std::vector<net::NodeId> ids = Iota(12);
  util::Rng jitter(99);
  bounding::NetworkBinding binding;
  binding.network = &network;
  binding.host = 0;
  binding.node_ids = &ids;
  binding.retry_rng = &jitter;

  auto lossy_policy = factory(12);
  auto lossy =
      bounding::ComputeCloakedRegion(points, reference, *lossy_policy, binding);
  ASSERT_TRUE(lossy.ok());
  // Retransmission recovers every loss, so the protocol outcome is exactly
  // the clean-network outcome -- only the traffic accounting differs.
  EXPECT_EQ(lossy.value().region, clean.value().region);
  EXPECT_EQ(lossy.value().iterations, clean.value().iterations);
  EXPECT_GT(lossy.value().retries, 0u);
  EXPECT_EQ(network.total_retry_stats().retries, lossy.value().retries);
  for (const geo::Point& p : points) {
    EXPECT_TRUE(lossy.value().region.Contains(p));
  }
}

TEST(ChaosBoundingTest, CrashedPeerSurfacesAsUnavailableWithoutLeak) {
  SmallWorld world = MakeWorld(2);
  const std::vector<geo::Point> points = FirstPoints(world.dataset, 8);
  net::Network network(200);
  network.CrashNode(5);
  const std::vector<net::NodeId> ids = Iota(8);
  bounding::NetworkBinding binding;
  binding.network = &network;
  binding.host = 0;
  binding.node_ids = &ids;

  auto policy = core::MakeSecurePolicyFactory(SmallWorldBounding())(8);
  auto result =
      bounding::ComputeCloakedRegion(points, points[0], *policy, binding);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
  ExpectNoCoordinateLeak(result.status().message(), world.dataset);
}

TEST(ChaosBoundingTest, ExhaustedRetryBudgetIsDeadlineExceededWithoutLeak) {
  SmallWorld world = MakeWorld(3);
  const std::vector<geo::Point> points = FirstPoints(world.dataset, 8);
  net::Network network(200);
  util::Rng loss_rng(4);
  ASSERT_TRUE(network.SetLossProbability(1.0, &loss_rng).ok());
  const std::vector<net::NodeId> ids = Iota(8);
  bounding::NetworkBinding binding;
  binding.network = &network;
  binding.host = 0;
  binding.node_ids = &ids;
  binding.retry.max_attempts = 3;

  auto policy = core::MakeSecurePolicyFactory(SmallWorldBounding())(8);
  auto result =
      bounding::ComputeCloakedRegion(points, points[0], *policy, binding);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  ExpectNoCoordinateLeak(result.status().message(), world.dataset);
  EXPECT_GT(network.retry_stats_of(net::MessageKind::kBoundProposal)
                .timeouts_observed,
            0u);
}

// Learns the membership of `host`'s cluster on a clean network (no fault
// plan), so chaos runs can pick victims and thresholds deterministically.
std::vector<graph::VertexId> CleanClusterMembers(const SmallWorld& world,
                                                 uint32_t k,
                                                 graph::VertexId host) {
  cluster::Registry registry(world.dataset.size());
  cluster::DistributedTConnClusterer clusterer(world.graph, k, &registry);
  auto outcome = clusterer.ClusterFor(host);
  NELA_CHECK(outcome.ok());
  return registry.info(outcome.value().cluster_id).members;
}

TEST(ChaosClusterTest, CrashedMemberIsExcludedFromTheCluster) {
  SmallWorld world = MakeWorld(5);
  const graph::VertexId host = 17;
  const std::vector<graph::VertexId> clean_members =
      CleanClusterMembers(world, 4, host);
  ASSERT_GE(clean_members.size(), 4u);
  graph::VertexId victim = cluster::kNoCluster;
  for (graph::VertexId m : clean_members) {
    if (m != host) victim = m;
  }
  ASSERT_NE(victim, cluster::kNoCluster);

  cluster::Registry registry(world.dataset.size());
  net::Network network(world.dataset.size());
  network.CrashNode(victim);
  cluster::DistributedTConnClusterer clusterer(world.graph, 4, &registry,
                                               &network);
  util::Rng jitter(11);
  clusterer.SetRetryPolicy(net::BackoffPolicy{}, &jitter);

  auto outcome = clusterer.ClusterFor(host);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.value().members_lost, 1u);
  const cluster::ClusterInfo& info =
      registry.info(outcome.value().cluster_id);
  for (graph::VertexId m : info.members) {
    EXPECT_NE(m, victim);
  }
  // The crashed user never ends up registered anywhere.
  EXPECT_FALSE(registry.IsClustered(victim));
  // The host's cluster is still validated against k after the exclusion.
  if (info.valid) {
    EXPECT_GE(info.members.size(), 4u);
  }
}

TEST(ChaosClusterTest, CrashedHostFailsUnavailableWithoutLeak) {
  SmallWorld world = MakeWorld(6);
  cluster::Registry registry(world.dataset.size());
  net::Network network(world.dataset.size());
  network.CrashNode(17);
  cluster::DistributedTConnClusterer clusterer(world.graph, 4, &registry,
                                               &network);
  auto outcome = clusterer.ClusterFor(17);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), util::StatusCode::kUnavailable);
  ExpectNoCoordinateLeak(outcome.status().message(), world.dataset);
}

// Fixture for engine-level chaos: measures, on a clean network, how many
// send attempts phase 1 consumes for `host`, so a crash can be scheduled
// to land mid-bounding (phase 2) deterministically.
struct EngineChaosSetup {
  std::vector<graph::VertexId> members;
  uint64_t phase1_attempts = 0;
  uint64_t total_attempts = 0;
};

EngineChaosSetup MeasureCleanRun(const SmallWorld& world, uint32_t k,
                                 graph::VertexId host) {
  cluster::Registry registry(world.dataset.size());
  net::Network network(world.dataset.size());
  core::CloakingEngine engine(
      world.dataset,
      std::make_unique<cluster::DistributedTConnClusterer>(world.graph, k,
                                                           &registry,
                                                           &network),
      &registry, core::MakeSecurePolicyFactory(SmallWorldBounding()),
      core::BoundingMode::kSecureProtocol, &network);
  auto outcome = engine.RequestCloaking(host);
  NELA_CHECK(outcome.ok());
  EngineChaosSetup setup;
  setup.members = registry.info(outcome.value().cluster_id).members;
  // On a clean network every attempt is delivered, so the per-kind message
  // counters partition the attempt counter exactly.
  setup.phase1_attempts =
      network.of_kind(net::MessageKind::kAdjacencyExchange).messages;
  setup.total_attempts = network.send_attempts();
  return setup;
}

core::CloakingEngine MakeFaultyEngine(const SmallWorld& world, uint32_t k,
                                      cluster::Registry* registry,
                                      net::Network* network,
                                      util::Rng* jitter) {
  auto clusterer = std::make_unique<cluster::DistributedTConnClusterer>(
      world.graph, k, registry, network);
  clusterer->SetRetryPolicy(net::BackoffPolicy{}, jitter);
  core::CloakingEngine engine(
      world.dataset, std::move(clusterer), registry,
      core::MakeSecurePolicyFactory(SmallWorldBounding()),
      core::BoundingMode::kSecureProtocol, network);
  engine.SetRetryPolicy(net::BackoffPolicy{}, jitter);
  return engine;
}

TEST(ChaosEngineTest, MidBoundingCrashRerunsBoundingOverSurvivors) {
  const uint32_t k = 4;
  SmallWorld world = MakeWorld(7);
  graph::VertexId host = cluster::kNoCluster;
  EngineChaosSetup setup;
  for (graph::VertexId candidate = 0; candidate < 40; ++candidate) {
    setup = MeasureCleanRun(world, k, candidate);
    if (setup.members.size() >= k + 2) {
      host = candidate;
      break;
    }
  }
  ASSERT_NE(host, cluster::kNoCluster) << "no cluster with k+2 members";
  ASSERT_GT(setup.total_attempts, setup.phase1_attempts);

  // Crash the last-ordered member one attempt into phase 2: phase 1 runs
  // untouched (identical seeds => identical attempt counts), and bounding
  // reaches the dead peer within its first iteration.
  graph::VertexId victim = cluster::kNoCluster;
  for (graph::VertexId m : setup.members) {
    if (m != host) victim = m;
  }
  ASSERT_NE(victim, cluster::kNoCluster);

  cluster::Registry registry(world.dataset.size());
  net::Network network(world.dataset.size());
  net::FaultPlan plan;
  plan.crashes.push_back(net::CrashEvent{victim, setup.phase1_attempts + 1});
  ASSERT_TRUE(network.InstallFaultPlan(plan).ok());
  util::Rng jitter(13);
  core::CloakingEngine engine =
      MakeFaultyEngine(world, k, &registry, &network, &jitter);

  auto outcome = engine.RequestCloaking(host);
  ASSERT_TRUE(outcome.ok());
  const core::CloakingOutcome& o = outcome.value();
  EXPECT_TRUE(o.anonymity_satisfied);
  EXPECT_GE(o.degradation.phases_retried, 1u);
  EXPECT_GE(o.degradation.members_lost, 1u);
  EXPECT_TRUE(o.degradation.degraded());
  // The re-run region covers every surviving member; the victim gets no
  // say and no guarantee.
  const cluster::ClusterInfo& info = registry.info(o.cluster_id);
  uint32_t survivors = 0;
  for (graph::VertexId m : info.members) {
    if (!network.IsAlive(m)) continue;
    ++survivors;
    EXPECT_TRUE(o.region.Contains(world.dataset.point(m)));
  }
  EXPECT_GE(survivors, k);
}

TEST(ChaosEngineTest, ChurnBelowKDegradesWithEmptyRegionAndNoLeak) {
  const uint32_t k = 4;
  SmallWorld world = MakeWorld(7);
  graph::VertexId host = cluster::kNoCluster;
  EngineChaosSetup setup;
  for (graph::VertexId candidate = 0; candidate < 40; ++candidate) {
    setup = MeasureCleanRun(world, k, candidate);
    if (setup.members.size() >= k + 1) {
      host = candidate;
      break;
    }
  }
  ASSERT_NE(host, cluster::kNoCluster);

  // Crash members (never the host) early in phase 2 until fewer than k can
  // survive, all at the same attempt threshold.
  const uint32_t to_crash =
      static_cast<uint32_t>(setup.members.size()) - k + 1;
  cluster::Registry registry(world.dataset.size());
  net::Network network(world.dataset.size());
  net::FaultPlan plan;
  uint32_t scheduled = 0;
  for (graph::VertexId m : setup.members) {
    if (m == host || scheduled == to_crash) continue;
    plan.crashes.push_back(net::CrashEvent{m, setup.phase1_attempts + 1});
    ++scheduled;
  }
  ASSERT_EQ(scheduled, to_crash);
  ASSERT_TRUE(network.InstallFaultPlan(plan).ok());
  util::Rng jitter(13);
  core::CloakingEngine engine =
      MakeFaultyEngine(world, k, &registry, &network, &jitter);

  auto outcome = engine.RequestCloaking(host);
  ASSERT_TRUE(outcome.ok());
  const core::CloakingOutcome& o = outcome.value();
  EXPECT_FALSE(o.anonymity_satisfied);
  EXPECT_EQ(o.region, geo::Rect());  // nothing exposed, not even a box
  EXPECT_EQ(o.degradation.failure_code,
            util::StatusCode::kFailedPrecondition);
  ExpectNoCoordinateLeak(o.degradation.failure_reason, world.dataset);
  EXPECT_GE(o.degradation.members_lost, to_crash);
}

TEST(ChaosEngineTest, AcceptanceScenarioLossPlusMidProtocolCrash) {
  // The issue's acceptance criterion: fixed seed, 5% loss, one crash
  // scheduled mid-protocol. The request must complete without aborting,
  // report its retries, and either cover the survivors or degrade with a
  // structured, non-exposing outcome.
  const uint32_t k = 4;
  SmallWorld world = MakeWorld(7);
  const graph::VertexId host = 17;
  const EngineChaosSetup setup = MeasureCleanRun(world, k, host);
  graph::VertexId victim = cluster::kNoCluster;
  for (graph::VertexId m : setup.members) {
    if (m != host) victim = m;
  }
  ASSERT_NE(victim, cluster::kNoCluster);

  cluster::Registry registry(world.dataset.size());
  net::Network network(world.dataset.size());
  net::FaultPlan plan;
  plan.seed = 1234;
  plan.loss_probability = 0.05;
  plan.crashes.push_back(net::CrashEvent{victim, setup.phase1_attempts + 1});
  ASSERT_TRUE(network.InstallFaultPlan(plan).ok());
  util::Rng jitter(1234);
  core::CloakingEngine engine =
      MakeFaultyEngine(world, k, &registry, &network, &jitter);

  auto outcome = engine.RequestCloaking(host);
  ASSERT_TRUE(outcome.ok());  // no abort, no CHECK failure
  const core::CloakingOutcome& o = outcome.value();
  EXPECT_GT(o.degradation.retries, 0u);  // 5% loss forces retransmissions
  if (o.anonymity_satisfied) {
    const cluster::ClusterInfo& info = registry.info(o.cluster_id);
    for (graph::VertexId m : info.members) {
      if (!network.IsAlive(m)) continue;
      EXPECT_TRUE(o.region.Contains(world.dataset.point(m)));
    }
  } else {
    EXPECT_EQ(o.region, geo::Rect());
    EXPECT_NE(o.degradation.failure_code, util::StatusCode::kOk);
    ExpectNoCoordinateLeak(o.degradation.failure_reason, world.dataset);
  }
}

// Predicate twin of ExpectNoCoordinateLeak for use inside properties, where
// a failure must be returned (with a repro seed) instead of EXPECTed.
std::optional<std::string> FindCoordinateLeak(const std::string& message,
                                              const data::Dataset& dataset) {
  if (message.find('.') != std::string::npos) {
    return "message contains a formatted number: " + message;
  }
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    const geo::Point p = dataset.point(i);
    if (message.find(std::to_string(p.x)) != std::string::npos ||
        message.find(std::to_string(p.y)) != std::string::npos) {
      return "message leaks a coordinate of user " + std::to_string(i) +
             ": " + message;
    }
  }
  return std::nullopt;
}

TEST(ChaosPropertyTest, RandomFaultPlansNeverExposeLocations) {
  // Property: under an arbitrary fault plan (loss x latency/timeouts x
  // crash schedule), every cloaking outcome -- success or structured
  // degradation -- leaves the registry passing the anonymity audit, the
  // wire-level adversary observer clean, and every degradation reason free
  // of coordinates. Failures print a seeded repro line.
  util::PropSpec spec;
  spec.name = "chaos_test";
  spec.base_seed = 0xfa017u;
  spec.iterations = 12;  // CI elevates via NELA_PROPTEST_ITERS
  spec.min_size = 2;
  spec.max_size = 6;  // size doubles as the anonymity requirement k

  auto failure = util::RunProperty(
      spec,
      [](util::Rng& rng, uint32_t size) -> std::optional<std::string> {
        const SmallWorld world = MakeWorld(rng.NextUint64(1u << 20));
        const uint32_t n = world.dataset.size();
        const uint32_t k = size;

        net::Network network(n);
        net::FaultPlan plan;
        plan.seed = rng.NextUint64();
        plan.loss_probability = rng.NextDouble(0.0, 0.12);
        if (rng.NextBernoulli(0.5)) {
          plan.latency.base_ms = rng.NextDouble(0.1, 2.0);
          plan.latency.jitter_ms = rng.NextDouble(0.0, 1.0);
          if (rng.NextBernoulli(0.3)) {
            // Timeout inside the jitter band: some deliveries time out and
            // behave like losses, exercising the retry path differently.
            plan.latency.timeout_ms =
                plan.latency.base_ms + 0.8 * plan.latency.jitter_ms;
          }
        }
        const uint32_t crash_count =
            static_cast<uint32_t>(rng.NextUint64(4));
        for (uint32_t i = 0; i < crash_count; ++i) {
          plan.crashes.push_back(
              net::CrashEvent{static_cast<net::NodeId>(rng.NextUint64(n)),
                              rng.NextUint64(3000) + 1});
        }
        if (!network.InstallFaultPlan(plan).ok()) {
          return std::string("fault plan rejected");
        }

        audit::TaintSet taint;
        for (uint32_t u = 0; u < n; ++u) {
          taint.TaintPoint(u, world.dataset.point(u));
        }
        audit::ObserverConfig observer_config;
        observer_config.taint = &taint;
        audit::AdversaryObserver observer(observer_config);
        network.SetTap(&observer);

        cluster::Registry registry(n);
        util::Rng jitter(rng.NextUint64());
        core::CloakingEngine engine =
            MakeFaultyEngine(world, k, &registry, &network, &jitter);

        const uint32_t requests =
            6 + static_cast<uint32_t>(rng.NextUint64(6));
        for (uint32_t r = 0; r < requests; ++r) {
          const data::UserId host =
              static_cast<data::UserId>(rng.NextUint64(n));
          auto outcome = engine.RequestCloaking(host);
          if (!outcome.ok()) {
            if (outcome.status().code() == util::StatusCode::kUnavailable) {
              continue;  // host crashed: an expected chaos outcome
            }
            return "unexpected engine error: " +
                   outcome.status().ToString();
          }
          const core::CloakingOutcome& o = outcome.value();
          if (!o.anonymity_satisfied) {
            if (!o.region.empty()) {
              return std::string(
                  "degraded outcome carries a non-empty region");
            }
            if (!o.degradation.failure_reason.empty()) {
              auto leak = FindCoordinateLeak(o.degradation.failure_reason,
                                             world.dataset);
              if (leak.has_value()) return leak;
            }
          }
        }
        network.SetTap(nullptr);

        std::vector<bool> alive(n);
        for (uint32_t u = 0; u < n; ++u) alive[u] = network.IsAlive(u);
        const core::AuditReport report =
            core::AuditAnonymity(registry, world.dataset, k, &alive);
        if (!report.ok()) {
          return "anonymity audit failed: " +
                 report.violations.front().description;
        }
        if (!observer.clean()) {
          return "observer flagged exposure:\n" + observer.Report();
        }
        if (observer.tagged_messages() == 0) {
          return std::string("no tagged traffic observed");
        }
        return std::nullopt;
      });
  ASSERT_FALSE(failure.has_value()) << failure->message << "\n"
                                    << failure->repro;
}

sim::Scenario BuildChaosScenario() {
  // The sim_test scale model of the paper's default scenario: delta grows
  // with the lower density so clusters can still form.
  sim::ScenarioConfig config;
  config.user_count = 4000;
  config.delta = 0.0102;
  config.max_peers = 10;
  config.seed = 11;
  auto scenario = sim::BuildScenario(config);
  NELA_CHECK(scenario.ok());
  return std::move(scenario).value();
}

TEST(ChaosSimTest, LossOnlyWorkloadMatchesCleanNetworkOutcomes) {
  // Loss without churn is fully absorbed by retransmission: the workload
  // produces exactly the clean-network outcome (including the requests
  // degraded for the intrinsic reason that a host's component is below k),
  // and only the traffic accounting shows the faults.
  const sim::Scenario scenario = BuildChaosScenario();
  sim::ChaosExperimentConfig config;
  config.k = 5;
  config.requests = 30;
  config.loss_probability = 0.0;
  auto clean = sim::RunChaosExperiment(scenario, config);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().retries, 0u);

  config.loss_probability = 0.05;
  auto lossy = sim::RunChaosExperiment(scenario, config);
  ASSERT_TRUE(lossy.ok());
  const sim::ChaosExperimentResult& r = lossy.value();
  EXPECT_EQ(r.succeeded, clean.value().succeeded);
  EXPECT_EQ(r.degraded, clean.value().degraded);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.avg_achieved_anonymity, clean.value().avg_achieved_anonymity);
  EXPECT_EQ(r.avg_region_area, clean.value().avg_region_area);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.dropped_messages, 0u);
  EXPECT_GT(r.dropped_bytes, 0u);
  EXPECT_GE(r.avg_achieved_anonymity, 5.0);
}

TEST(ChaosSimTest, EveryRunIsAuditedForExposure) {
  // The adversary observer watches every message of every chaos run --
  // retransmissions and messages to crashed nodes included -- and the
  // failure paths leak nothing.
  const sim::Scenario scenario = BuildChaosScenario();
  sim::ChaosExperimentConfig config;
  config.k = 5;
  config.requests = 30;
  config.loss_probability = 0.05;
  config.churn_rate = 0.01;
  config.churn_attempt_spacing = 500;
  auto result = sim::RunChaosExperiment(scenario, config);
  ASSERT_TRUE(result.ok());
  const sim::ChaosExperimentResult& r = result.value();
  EXPECT_GT(r.delivered_messages, 0u);
  EXPECT_GE(r.audited_messages, r.delivered_messages);
  EXPECT_EQ(r.exposure_violations, 0u);
}

TEST(ChaosSimTest, SameSeedReproducesBitIdentically) {
  const sim::Scenario scenario = BuildChaosScenario();
  sim::ChaosExperimentConfig config;
  config.k = 5;
  config.requests = 40;
  config.fault_seed = 77;
  config.loss_probability = 0.05;
  config.churn_rate = 0.01;
  config.churn_attempt_spacing = 500;

  auto first = sim::RunChaosExperiment(scenario, config);
  auto second = sim::RunChaosExperiment(scenario, config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const sim::ChaosExperimentResult& a = first.value();
  const sim::ChaosExperimentResult& b = second.value();
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.dropped_bytes, b.dropped_bytes);
  EXPECT_EQ(a.timed_out_messages, b.timed_out_messages);
  EXPECT_EQ(a.dead_endpoint_attempts, b.dead_endpoint_attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmitted_bytes, b.retransmitted_bytes);
  EXPECT_EQ(a.members_lost, b.members_lost);
  EXPECT_EQ(a.phases_retried, b.phases_retried);
  // Doubles must match to the bit, not within a tolerance.
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.retry_overhead, b.retry_overhead);
  EXPECT_EQ(a.avg_achieved_anonymity, b.avg_achieved_anonymity);
  EXPECT_EQ(a.avg_region_area, b.avg_region_area);
}

}  // namespace
}  // namespace nela
