// Complexity gate for the service request path (ctest label
// `request-perf-smoke`): the cost of one cloaking request must depend on
// the cluster and its neighbourhood, not on the population N. The paper's
// distributed t-Conn is local, so a one-thread ShardedServiceDriver
// serving S=1024 requests should see about the same median per-request
// latency at 100k users as at 20k, provided the WPG density is held fixed
// (delta = 2e-3 * sqrt(104770 / N), the density of Table I).
//
// The gate asserts p50(100k) <= 1.5 * p50(20k), best of 3 runs per size,
// with the runs of the two sizes interleaved so a burst of load on the
// machine hits both. A ratio of the same code on the same machine holds
// on any runner; a step that scans or copies O(N) state per request shows
// up as a ratio near 100k/20k = 5. Each repeat must reproduce the first
// run's registry digest, so a fast path can never buy speed by changing
// what gets clustered. Timings only mean something in an optimized,
// uninstrumented build, so Debug and sanitizer builds skip with a reason.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"

namespace nela::sim {
namespace {

constexpr int kReps = 3;
constexpr uint32_t kRequests = 1024;
constexpr double kMaxRatio = 1.5;

struct SizeRuns {
  uint32_t users = 0;
  Scenario scenario;
  double best_p50_ms = 0.0;
  uint64_t digest = 0;
};

Scenario DensityMatchedScenario(uint32_t users) {
  ScenarioConfig config;
  config.user_count = users;
  config.delta = 2e-3 * std::sqrt(104770.0 / users);
  auto built = BuildScenario(config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// One closed-batch run; folds its p50 into `runs` and checks the digest
// against the first repeat.
void RunOnce(SizeRuns& runs, int rep) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = kRequests;
  config.service.threads = 1;
  ShardedServiceDriver driver(
      runs.scenario.dataset, runs.scenario.graph,
      core::MakeSecurePolicyFactory(core::BoundingParams{}), config);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ServiceResult& service = result.value().service;
  ASSERT_TRUE(service.reciprocity_ok);
  if (rep == 0) {
    runs.digest = service.registry_digest;
    runs.best_p50_ms = service.p50_latency_ms;
  } else {
    EXPECT_EQ(service.registry_digest, runs.digest)
        << runs.users << " users, repeat " << rep;
    runs.best_p50_ms = std::min(runs.best_p50_ms, service.p50_latency_ms);
  }
}

TEST(RequestPerfSmokeTest, MedianRequestLatencyIndependentOfPopulation) {
  const std::string build_type = NELA_TEST_BUILD_TYPE;
  const std::string sanitizer = NELA_TEST_SANITIZER;
  if (build_type != "Release") {
    GTEST_SKIP() << "timing gate needs a Release build (this one is '"
                 << build_type << "')";
  }
  if (!sanitizer.empty()) {
    GTEST_SKIP() << "timing gate skipped under the " << sanitizer
                 << " sanitizer";
  }

  SizeRuns small{20000, DensityMatchedScenario(20000)};
  SizeRuns large{100000, DensityMatchedScenario(100000)};
  for (int rep = 0; rep < kReps; ++rep) {
    RunOnce(small, rep);
    RunOnce(large, rep);
  }
  ASSERT_GT(small.best_p50_ms, 0.0);
  const double ratio = large.best_p50_ms / small.best_p50_ms;
  std::printf("request p50: %.4f ms at 20k users, %.4f ms at 100k (%.2fx)\n",
              small.best_p50_ms, large.best_p50_ms, ratio);
  EXPECT_LE(ratio, kMaxRatio)
      << "median request latency grows with N: " << large.best_p50_ms
      << " ms at 100k vs " << small.best_p50_ms
      << " ms at 20k -- some per-request step scans or copies global state";
}

}  // namespace
}  // namespace nela::sim
