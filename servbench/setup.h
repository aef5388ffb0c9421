// Workload definitions and the serving state every run builds first: the
// clustered California-like population, its WPG, and the LBS POI index.

#ifndef NELA_SERVBENCH_SETUP_H_
#define NELA_SERVBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "graph/wpg.h"
#include "graph/wpg_builder.h"
#include "lbs/poi_database.h"
#include "util/status.h"

namespace nela::servbench {

struct Workload {
  const char* name;
  uint32_t users;
  // S as a share of the population N; all S requests are admitted at t=0.
  double request_share;
  // Spatial shard count K of sim::ShardedServiceDriver.
  uint32_t shards;
  // Per-shard WAL streams under a fresh durability directory per run.
  bool durable;
  // Turnstile commits between per-shard checkpoints (durable only).
  uint32_t checkpoint_interval;
};

// Anonymity requirement of every workload.
inline constexpr uint32_t kAnonymityK = 5;

// Looks a workload up by name; null when there is none.
const Workload* FindWorkload(const std::string& name);

// Requests per run for a population of `users`.
uint32_t RequestCount(const Workload& workload, uint32_t users);

struct Setup {
  data::Dataset dataset;
  graph::Wpg graph{0u};
  // Indexes `dataset` (the POI database is the user dataset, as in the
  // comparative driver).
  std::unique_ptr<lbs::PoiDatabase> poi;
  graph::WpgBuildStats wpg_stats;
  double generate_s = 0.0;
  double build_wpg_s = 0.0;
  double index_s = 0.0;
  double total_s = 0.0;
};

// Builds the dataset with sim::BuildScenario's defaults for `users` (fixed
// dataset seed, so every --seed serves the same population), its WPG on
// two pool threads, and the POI index -- timing each step.
[[nodiscard]] util::Result<std::unique_ptr<Setup>> BuildSetup(uint32_t users);

}  // namespace nela::servbench

#endif  // NELA_SERVBENCH_SETUP_H_
