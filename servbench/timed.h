// Timed runs of sim::ShardedServiceDriver with tracing off: a closed loop
// of `threads` clients with all S requests admitted at t=0, repeated with
// the same seeds until the measurement window is used up.

#ifndef NELA_SERVBENCH_TIMED_H_
#define NELA_SERVBENCH_TIMED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "setup.h"
#include "util/status.h"

namespace nela::servbench {

struct ServiceRunConfig {
  uint32_t k = kAnonymityK;
  uint32_t requests = 0;
  uint32_t threads = 1;
  uint32_t shards = 1;
  uint64_t master_seed = 0;
  uint64_t workload_seed = 0;
  // Directory of the run's per-shard WAL and checkpoint streams, emptied
  // before the run; empty disables durability.
  std::string durability_dir;
  uint32_t checkpoint_interval = 0;
};

// Facts of one driver run that the correctness gate and the metrics read.
struct RunFacts {
  double wall_s = 0.0;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  // Shed, aborted, errored, or finalized other than exactly once.
  uint64_t hard_failures = 0;
  uint64_t unsatisfied = 0;
  uint64_t registry_digest = 0;
  // Requests that resolved to a fresh cluster (neither cluster nor region
  // reused): the ones that speculated.
  uint64_t fresh_clusters = 0;
  uint64_t region_reuses = 0;
  uint64_t spec_aborts = 0;
  uint64_t spec_retries = 0;
  uint64_t claim_conflicts = 0;
  uint64_t claim_wounds = 0;
  uint64_t cross_shard_handoffs = 0;
  uint64_t clustering_messages = 0;
  uint64_t bounding_verifications = 0;
  uint64_t satisfied_with_region = 0;
  uint64_t lbs_candidates = 0;
  std::vector<double> latencies_ms;
  // Filled by TimeRecovery.
  std::vector<double> recover_s;
  // Run-level gate violations (empty when the run is correct).
  std::vector<std::string> violations;
};

// Bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

// One driver run. Afterwards every satisfied request's region is sent to
// an LBS server over `setup.poi` (outside Run()'s wall time) and the
// candidates are counted. A durability directory is left in place.
RunFacts RunService(const Setup& setup, const core::PolicyFactory& policy,
                    const ServiceRunConfig& config);

struct RecoveryTiming {
  double seconds = 0.0;
  uint64_t digest = 0;
};

// A restart from `dir`: RecoverAllShards on min(shards, threads) pool
// threads, then AssembleRegistry. Returns the time both took and the
// recovered registry's digest.
util::Result<RecoveryTiming> RecoverOnce(const std::string& dir,
                                         uint32_t shards, uint32_t threads,
                                         uint32_t users);

// Times `repeats` restarts from `dir`, each one RecoverOnce in a fresh
// process (`self --recover_dir=...`), since a restarting service starts
// from an empty heap. Recovery is a pure function of the directory, so
// every restart does the same work. Appends to facts.recover_s and records
// a violation when a recovered digest is not `run_digest` -- a committed
// cluster was lost.
void TimeRecovery(const std::string& self, const std::string& dir,
                  const ServiceRunConfig& config, uint32_t users,
                  uint64_t run_digest, uint32_t repeats, RunFacts& facts);

}  // namespace nela::servbench

#endif  // NELA_SERVBENCH_TIMED_H_
