// The traced replay: a workload's request sequence re-executed on one
// thread through the layers' public calls, in the order
// sim::ShardedServiceDriver runs them when nothing contends, with a span
// around every call. Uncontended, every speculation commits, so the
// replay's registry digest must equal the timed runs' for the same seeds.

#ifndef NELA_SERVBENCH_REPLAY_H_
#define NELA_SERVBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "setup.h"
#include "spans.h"
#include "timed.h"

namespace nela::servbench {

// Label of the per-request root span.
inline constexpr char kRequestSpan[] = "request";

struct ReplayResult {
  double wall_s = 0.0;
  uint64_t registry_digest = 0;
  uint64_t finalize_violations = 0;
  // Users that shipped adjacency in t-Conn, and members of the clusters
  // those runs formed.
  uint64_t involved_users = 0;
  uint64_t members_clustered = 0;
  uint64_t bounding_verifications = 0;
  uint64_t bytes_delivered = 0;
  // Bytes of the requests' canonical traces (TraceSink::ToString).
  uint64_t trace_bytes = 0;
  uint64_t lbs_candidates = 0;
  // Durable workloads only.
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t records_replayed = 0;
  uint64_t recovered_digest = 0;
  // First failure, if any (a hard request error or a durability error).
  std::string error;
};

// Replays `config`'s workload (into a fresh config.durability_dir when set,
// removed afterwards) and records spans into `recorder`.
ReplayResult Replay(const Setup& setup, const core::PolicyFactory& policy,
                    const ServiceRunConfig& config, SpanRecorder& recorder);

}  // namespace nela::servbench

#endif  // NELA_SERVBENCH_REPLAY_H_
