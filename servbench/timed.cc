#include "timed.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>

#include "core/policy_factory.h"
#include "durability/sharded_recovery.h"
#include "lbs/server.h"
#include "sim/sharded_service_driver.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nela::servbench {

namespace {

// Runs `argv` to completion and returns what it wrote to stdout; nullopt
// when it could not be started or did not exit with status 0.
std::optional<std::string> RunChild(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawnp(&pid, args[0], &actions, nullptr,
                                   args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[256];
  ssize_t n = 0;
  while (spawned == 0 && (n = read(fds[0], buffer, sizeof(buffer))) != 0) {
    if (n > 0) {
      out.append(buffer, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0) return std::nullopt;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return std::nullopt;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

}  // namespace

util::Result<RecoveryTiming> RecoverOnce(const std::string& dir,
                                         uint32_t shards, uint32_t threads,
                                         uint32_t users) {
  util::ThreadPool pool(std::min(shards, threads));
  const util::WallTimer timer;
  auto recovered = durability::RecoverAllShards(dir, shards, users, &pool);
  if (!recovered.ok()) return recovered.status();
  auto registry = durability::AssembleRegistry(recovered.value());
  if (!registry.ok()) return registry.status();
  return RecoveryTiming{timer.ElapsedSeconds(), registry.value()->Digest()};
}

void TimeRecovery(const std::string& self, const std::string& dir,
                  const ServiceRunConfig& config, uint32_t users,
                  uint64_t run_digest, uint32_t repeats, RunFacts& facts) {
  const std::vector<std::string> argv = {
      self, "--recover_dir=" + dir, "--shards=" + std::to_string(config.shards),
      "--threads=" + std::to_string(config.threads),
      "--users=" + std::to_string(users)};
  for (uint32_t repeat = 0; repeat < repeats; ++repeat) {
    const std::optional<std::string> out = RunChild(argv);
    double seconds = 0.0;
    unsigned long long digest = 0;
    if (!out.has_value() ||
        std::sscanf(out->c_str(), "%lf %llx", &seconds, &digest) != 2) {
      facts.violations.push_back("restart process failed to recover");
      return;
    }
    facts.recover_s.push_back(seconds);
    if (digest != run_digest) {
      facts.violations.push_back(
          "recovered registry digest differs from the run's");
      return;
    }
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

RunFacts RunService(const Setup& setup, const core::PolicyFactory& policy,
                    const ServiceRunConfig& config) {
  RunFacts facts;
  sim::ShardedServiceConfig driver_config;
  driver_config.service.k = config.k;
  driver_config.service.requests = config.requests;
  driver_config.service.threads = config.threads;
  driver_config.service.master_seed = config.master_seed;
  driver_config.service.workload_seed = config.workload_seed;
  driver_config.shards = config.shards;
  if (!config.durability_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(config.durability_dir, ec);
    std::filesystem::create_directories(config.durability_dir, ec);
    driver_config.durability_dir = config.durability_dir;
    driver_config.service.checkpoint_interval = config.checkpoint_interval;
  }

  sim::ShardedServiceDriver driver(setup.dataset, setup.graph, policy,
                                   driver_config);
  auto run = driver.Run();
  if (!run.ok()) {
    facts.attempted = config.requests;
    facts.hard_failures = config.requests;
    facts.violations.push_back(std::string("driver run failed: ") +
                               util::StatusCodeName(run.status().code()));
    return facts;
  }
  const sim::ShardedServiceResult& sharded = run.value();
  const sim::ServiceResult& result = sharded.service;
  facts.wall_s = result.wall_seconds;
  facts.registry_digest = result.registry_digest;
  facts.spec_aborts = result.speculation_aborts;
  facts.spec_retries = result.speculation_retries;
  facts.claim_conflicts = result.claim_conflicts;
  facts.claim_wounds = result.claim_wounds;
  facts.cross_shard_handoffs = sharded.cross_shard_handoffs;

  const core::BoundingParams bounding;
  const lbs::LbsServer server(setup.poi.get(), bounding.cr);
  uint64_t finalize_violations = 0;
  for (const sim::ServiceRequestRecord& record : result.records) {
    ++facts.attempted;
    const core::CloakingOutcome& outcome = record.outcome;
    const bool finalized_once = outcome.degradation.finalize_count == 1;
    if (!finalized_once) ++finalize_violations;
    if (!record.admitted || record.aborted_by_crash || !finalized_once) {
      ++facts.hard_failures;
      continue;
    }
    ++facts.completed;
    facts.latencies_ms.push_back(record.wall_ms);
    facts.clustering_messages += outcome.clustering_messages;
    facts.bounding_verifications += outcome.bounding_verifications;
    if (outcome.region_reused) {
      ++facts.region_reuses;
    } else if (!outcome.cluster_reused) {
      ++facts.fresh_clusters;
    }
    if (!outcome.anonymity_satisfied) {
      ++facts.unsatisfied;
    } else if (!outcome.region.empty()) {
      ++facts.satisfied_with_region;
      facts.lbs_candidates += server.RangeQuery(outcome.region).candidate_count;
    }
  }

  if (finalize_violations > 0) {
    facts.violations.push_back(std::to_string(finalize_violations) +
                               " outcomes not finalized exactly once");
  }
  if (!result.reciprocity_ok) {
    facts.violations.push_back("registry reciprocity violated");
  }
  if (result.crashed) facts.violations.push_back("run crashed");
  if (config.shards > 1 &&
      sharded.concatenated_digest != result.registry_digest) {
    facts.violations.push_back(
        "concatenated shard digest differs from the registry digest");
  }
  return facts;
}

}  // namespace nela::servbench
