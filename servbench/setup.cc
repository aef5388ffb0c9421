#include "setup.h"

#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "util/rng.h"
#include "util/timer.h"

namespace nela::servbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"fresh-104k", data::kCaliforniaPoiCount, 0.02, 1, false, 0},
    {"reuse-20k", 20000, 0.80, 1, false, 0},
    // nela-lint: allow(shard-path) a workload name, not a durable path
    {"durable-4shard-20k", 20000, 0.40, 4, true, 8},
};

// sim::ScenarioConfig defaults: Table I's delta and M, dataset seed 42.
constexpr double kDelta = 2e-3;
constexpr uint32_t kMaxPeers = 10;
constexpr uint64_t kDatasetSeed = 42;
// WPG build workers, as many as the timed runs' clients: on a shared 4-core
// host a build on every core timed the scheduler, not the build.
constexpr uint32_t kSetupThreads = 2;

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

uint32_t RequestCount(const Workload& workload, uint32_t users) {
  const double requests =
      std::round(workload.request_share * static_cast<double>(users));
  return std::max(1u, static_cast<uint32_t>(requests));
}

util::Result<std::unique_ptr<Setup>> BuildSetup(uint32_t users) {
  auto setup = std::make_unique<Setup>();
  const util::WallTimer total;

  util::WallTimer step;
  util::Rng rng(kDatasetSeed);
  data::RoadNetworkParams params;
  params.count = users;
  // Same town-count scaling as sim::BuildScenario, so a scaled-down
  // population keeps the full-size one's per-town density.
  params.num_cities = std::max<uint32_t>(
      2, static_cast<uint32_t>(static_cast<uint64_t>(params.num_cities) *
                               users / data::kCaliforniaPoiCount));
  setup->dataset = data::GenerateRoadNetwork(params, rng);
  setup->generate_s = step.ElapsedSeconds();

  step.Reset();
  graph::WpgBuildParams build;
  build.delta = kDelta;
  build.max_peers = kMaxPeers;
  build.threads = kSetupThreads;
  auto graph =
      graph::BuildWpg(setup->dataset, build, nullptr, &setup->wpg_stats);
  if (!graph.ok()) return graph.status();
  setup->graph = std::move(graph).value();
  setup->build_wpg_s = step.ElapsedSeconds();

  step.Reset();
  setup->poi = std::make_unique<lbs::PoiDatabase>(setup->dataset);
  setup->index_s = step.ElapsedSeconds();
  setup->total_s = total.ElapsedSeconds();
  return setup;
}

}  // namespace nela::servbench
