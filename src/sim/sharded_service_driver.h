// The anonymizer service: S cloaking requests over one shared cluster
// registry, executed by a worker pool across K spatial shards (K=1 is just
// a config value), with bit-identical results at any thread count and any
// shard count. This is the only service driver; benches, tests and the
// service benchmark all run it.
//
// Execution model (optimistic concurrency + a commit turnstile):
//
//  * Speculation (parallel): each request takes a speculation view of the
//    registry (Registry::Snapshot: the N-bit active mask and the version,
//    no cluster copied), runs phase-1 clustering on it, and claims its
//    candidate's users through wound-wait ClaimCoordinators -- tickets
//    carry the request's global admission rank, so claim priority equals
//    arrival order and conflicts resolve deterministically in favor of the
//    older request.
//  * Commit turnstile (serialized, strict admission order, GLOBAL for every
//    K): request o commits only after every earlier admitted request has,
//    and only if its snapshot version still matches the registry (and its
//    claims were not wounded); otherwise phase 1 recomputes serially inside
//    the turnstile. Either way the registry evolves exactly as a
//    sequential run would, which is also why the final digest is
//    INDEPENDENT of the shard count: sharding relabels ownership and
//    arbitration, never what gets clustered (see sharded_registry.h).
//  * Region latch (per cluster): the earliest request that finds its
//    committed cluster region-less becomes the publisher; later requests
//    for the same cluster wait and reuse the region. Should the publisher
//    degrade, the next-oldest waiter promotes itself, matching the
//    sequential order.
//  * Bounding + publish (parallel): phase 2 runs through the shared
//    core::SecureBoundStage / PublishStage with backoff jitter drawn from
//    the request's private RNG sub-stream (derived from master_seed and
//    the ordinal, never from scheduling).
//
// Per-request traces carry only deterministic facts and are written after
// the outcome fully resolves, so concatenated traces and the registry
// digest are bit-identical across {1, 4, 8, ...} worker threads. Wall-clock
// latency and claim conflict/abort totals are scheduling-dependent and
// reported separately. Injected network loss draws from a shared RNG whose
// order is scheduling-dependent, so determinism needs a fault-free network
// (or none).
//
// Around that core:
//
//  * Routing -- a cluster::ShardMap grid partitions the unit square; every
//    request is routed to the home shard of its host (a pure function of
//    the dataset and K, never of execution order).
//  * Admission -- arrivals come from ONE global Poisson clock but queue in
//    per-shard bounded c-server queues (worker threads are distributed
//    across shards as servers, floor one per shard). Requests that find
//    the queue full are shed with kUnavailable, requests whose simulated
//    wait exceeds the deadline with kDeadlineExceeded; every shed is a
//    structured, non-exposing DegradationReport. Sheds are computed
//    sequentially up front, so the shed set is a function of (config,
//    thread count, K). Admitted requests carry the wait as simulated
//    backoff so the in-pipeline deadline check still fires.
//  * Claims -- one coordinator per shard arbitrates the users homed there,
//    all sharing the global admission-rank priority
//    (ClaimCoordinator::OpenRequestAt). A candidate touching several shards
//    is claimed home-shard-first, then ascending foreign shards; any
//    failure releases everything and retries. The globally oldest request
//    succeeds everywhere, so the handoff is deadlock-free without a global
//    lock.
//  * Durability -- with a durability directory configured, each turnstile
//    commit is logged as one atomic record to the coordinating (home)
//    shard's WAL stream, regions follow in the same stream, and checkpoints
//    are cut per shard (durability::ShardedDurableRegistry). A crashed
//    run's state is rebuilt by durability::RecoverAllShards +
//    AssembleRegistry and the workload finished via Resume(): work that
//    committed before the crash resolves as reuse, the rest re-executes
//    with the same per-request RNG sub-streams, so the final digest is
//    bit-identical to an uninterrupted run.
//  * Chaos -- net::FaultPlan::process_crashes schedules process-level
//    crashes at the commit/WAL/checkpoint points; when one fires the run
//    halts as a real crash would (workers unwind, unfinished requests are
//    reported as crash aborts, on-disk state is left exactly as the crash
//    point dictates -- including a torn WAL record or checkpoint).
//  * Progress -- there is no watchdog: every wait (a claim retry, the
//    turnstile, a region latch) is on an OLDER request, and the oldest
//    unfinished request never waits, so the run always drains.
//
// The driver serves only the native clustering + secure-bounding scheme
// (the paper's Fig. 3). Baseline mechanisms are compared separately, via
// mechanisms::RunCampaign.

#ifndef NELA_SIM_SHARDED_SERVICE_DRIVER_H_
#define NELA_SIM_SHARDED_SERVICE_DRIVER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/concurrency.h"
#include "cluster/registry.h"
#include "cluster/shard_map.h"
#include "core/cloaking_engine.h"
#include "core/policy_factory.h"
#include "data/dataset.h"
#include "durability/sharded_recovery.h"
#include "graph/wpg.h"
#include "net/accounting.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "util/status.h"

namespace nela::sim {

struct ServiceConfig {
  // --- Workload -----------------------------------------------------------
  // Anonymity requirement.
  uint32_t k = 5;
  // Number of cloaking requests S (distinct hosts).
  uint32_t requests = 64;
  // Worker threads; 0 behaves as 1. Also the server count c of the
  // admission queue model.
  uint32_t threads = 1;
  // Seed of every request's private RNG sub-stream (see
  // core::RequestContext::DeriveStreamSeed).
  uint64_t master_seed = 1;
  // Seed selecting which hosts issue requests.
  uint64_t workload_seed = 7;

  // --- Admission / overload ---------------------------------------------
  // Mean arrivals per simulated millisecond (Poisson process). 0 disables
  // the queue model entirely: all requests arrive at t=0 with zero wait and
  // nothing is shed (the closed-batch mode).
  double offered_rate_per_ms = 0.0;
  // Simulated per-request service time of the queue model; the sustainable
  // load is threads / service_time_ms arrivals per ms.
  double service_time_ms = 1.0;
  // Waiting-room bound: a request that arrives while this many admitted
  // requests are queued (arrived, not yet started) is shed with
  // kUnavailable. 0 = unbounded.
  uint32_t queue_capacity = 0;
  // Per-request deadline over simulated time (queue wait + network
  // latency + backoff). A request whose queue wait alone exceeds it is shed
  // before execution with kDeadlineExceeded; admitted requests keep the
  // remainder as their in-pipeline deadline budget. Infinity = no deadline.
  double deadline_ms = std::numeric_limits<double>::infinity();

  // --- Durability --------------------------------------------------------
  // With ShardedServiceConfig::durability_dir set, cut a per-shard
  // checkpoint every this many turnstile commits; 0 disables (WAL-only
  // durability).
  uint32_t checkpoint_interval = 0;

  // --- Chaos -------------------------------------------------------------
  // Network faults (loss/latency/node crashes) plus process_crashes, the
  // scheduled process-level crash points consumed by this driver. The
  // driver always attaches one shared network, so phase-2 traffic is
  // accounted per request (scoped) and globally.
  net::FaultPlan fault_plan;

  // Observer for every network message (e.g. the exposure audit); not
  // owned, may be null.
  net::TrafficTap* tap = nullptr;
};

// Why a request was refused at admission.
enum class ShedCause : uint8_t {
  kNone = 0,
  kQueueOverflow,  // waiting room full on arrival
  kDeadline,       // simulated queue wait exceeded the deadline
};

// One request's result. Everything except wall_ms (and, under the queue
// model, the thread-dependent shed set) is deterministic for a given
// (scenario, config) regardless of thread count.
struct ServiceRequestRecord {
  data::UserId host = 0;
  uint64_t ordinal = 0;
  // False when the request was shed at admission (outcome then carries the
  // structured degradation report of the shed).
  bool admitted = true;
  ShedCause shed = ShedCause::kNone;
  // True when a scheduled process crash aborted the request before its
  // outcome resolved; the report's failure_code is kUnavailable.
  bool aborted_by_crash = false;
  // Simulated arrival time and queue wait (both 0 with the queue model
  // off).
  double arrival_ms = 0.0;
  double queue_wait_ms = 0.0;
  core::CloakingOutcome outcome;
  // "stage CODE detail" lines (core::TraceSink::ToString).
  std::string trace;
  // Scoped traffic/retry accounting of this request.
  net::ScopeStats net_stats;
  // Wall-clock latency including turnstile/latch waits (scheduling-
  // dependent; excluded from determinism comparisons).
  double wall_ms = 0.0;
};

struct ServiceResult {
  // In ordinal order, shed and aborted requests included.
  std::vector<ServiceRequestRecord> records;
  // cluster::Registry::Digest() of the final registry: membership,
  // validity, and the bit patterns of every published region. Bit-identical
  // across thread counts and shard counts for the same seeds.
  uint64_t registry_digest = 0;
  // FNV fold of every request's outcome facts in ordinal order (host,
  // admission, satisfaction, region and probe coordinate bits): a
  // determinism witness over what each requester was served, next to the
  // registry digest's witness over the cluster state.
  uint64_t outcome_digest = 0;
  // Every user ended up in at most one cluster (must always hold).
  bool reciprocity_ok = false;
  uint32_t clusters_formed = 0;

  // Admission accounting.
  uint64_t admitted = 0;
  uint64_t shed_queue_overflow = 0;
  uint64_t shed_deadline = 0;
  uint64_t aborted_by_crash = 0;
  // Simulated queue-wait percentiles over admitted requests.
  double p50_queue_wait_ms = 0.0;
  double p99_queue_wait_ms = 0.0;

  // Durability accounting.
  uint64_t wal_records = 0;
  uint64_t checkpoints_written = 0;
  // True when a scheduled process crash halted the run; crash_point names
  // it. A crashed run returns Ok -- the crash is data, not a driver error.
  bool crashed = false;
  std::optional<net::ProcessCrashPoint> crash_point;

  // Contention statistics (scheduling-dependent).
  uint64_t claim_conflicts = 0;
  uint64_t claim_wounds = 0;
  // Speculative candidates discarded at the turnstile (stale snapshot or
  // wounded claim) and recomputed serially.
  uint64_t speculation_aborts = 0;
  // Claim-failure retries during speculation.
  uint64_t speculation_retries = 0;

  // Throughput and per-request wall-latency percentiles (milliseconds)
  // over the whole run.
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

struct ShardedServiceConfig {
  // Workload, admission, chaos, and checkpoint-cadence knobs.
  ServiceConfig service;
  // Spatial shard count K (>= 1).
  uint32_t shards = 1;
  // Base directory of the per-shard WAL/checkpoint streams (layout in
  // durability/shard_layout.h); empty disables durability.
  std::string durability_dir;
};

// Per-shard accounting of one run.
struct ShardRunStats {
  uint32_t shard = 0;
  // Population homed in this shard.
  uint32_t users = 0;
  // Arrivals routed here (admitted + shed).
  uint64_t requests_routed = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_overflow = 0;
  uint64_t shed_deadline = 0;
  // Clusters this shard owns in the final registry, and how many of those
  // straddle a shard boundary.
  uint64_t clusters_owned = 0;
  uint64_t cross_shard_clusters_owned = 0;
  // Records appended to this shard's WAL stream (durability only).
  uint64_t wal_records = 0;
  // cluster::ShardedRegistry::ShardDigest of this shard's slice.
  uint64_t shard_digest = 0;
  // Simulated queue-wait percentiles over requests admitted here.
  double p50_queue_wait_ms = 0.0;
  double p99_queue_wait_ms = 0.0;
};

struct ShardedServiceResult {
  // The global view (shard-count-invariant except for the traces' shard
  // facts and the per-shard admission queues).
  ServiceResult service;
  std::vector<ShardRunStats> shards;
  // Fold of the K shard slices merged back into commit order; equals
  // service.registry_digest for every K (the shard-count-invariance
  // identity the tests assert).
  uint64_t concatenated_digest = 0;
  // Committed clusters whose members span more than one shard.
  uint64_t cross_shard_clusters = 0;
  // Successful claim acquisitions that touched more than one shard's
  // coordinator (scheduling-dependent, like the conflict counters).
  uint64_t cross_shard_handoffs = 0;
};

class ShardedServiceDriver {
 public:
  // `dataset` and `graph` must outlive the driver.
  ShardedServiceDriver(const data::Dataset& dataset, const graph::Wpg& graph,
                       core::PolicyFactory policy_factory,
                       const ShardedServiceConfig& config);

  // Runs the full workload against a fresh registry (truncating any
  // existing WAL streams). Repeatable: each call starts from empty state,
  // so two Run() calls with equal config produce identical digests and
  // traces.
  [[nodiscard]] util::Result<ShardedServiceResult> Run();

  // Continues a crashed run: the recovered slices are assembled back into
  // one registry, each stream's lsn sequence and the checkpoint numbering
  // continue where the disk state ends, and the same workload is
  // re-submitted -- requests whose commits survived resolve as reuse, the
  // rest re-execute deterministically, so the final digests match an
  // uninterrupted run. Scheduled process crashes in the fault plan remain
  // armed; clear them before resuming unless a second crash is intended.
  [[nodiscard]] util::Result<ShardedServiceResult> Resume(
      const durability::ShardedRecoveredState& recovered);

 private:
  struct RunState;

  [[nodiscard]] util::Result<ShardedServiceResult> RunInternal(
      std::unique_ptr<cluster::Registry> registry,
      std::vector<uint64_t> shard_next_lsns,
      std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
      bool truncate_wal, uint64_t checkpoint_seq_start);

  // Serves the admitted request of admission rank `rank`.
  [[nodiscard]] util::Status ProcessRequest(RunState& run, uint64_t rank);
  // Phase 1 for `host` on a private speculation view of the registry (its
  // version goes to `version` when non-null): appends the clusters a
  // commit would register to `candidate` and returns the involved-user
  // count. A host the view already clusters yields nothing.
  [[nodiscard]] util::Result<uint64_t> ClusterOnSnapshot(
      RunState& run, data::UserId host, uint64_t* version,
      std::vector<cluster::ClusterInfo>* candidate);
  void AdmitWorkload(RunState& run);
  // Delivers a request the pipeline never served (shed at admission, or
  // aborted by a crash) as a structured degradation with one stage record.
  void FillUnservedRecord(RunState& run, uint64_t ordinal,
                          const char* stage_name, util::StatusCode code,
                          std::string detail);

  // Cross-shard claim handoff: claims `members` for `ticket` home-shard-
  // first then ascending, releasing everything on any failure.
  bool TryClaimAcross(RunState& run, cluster::Ticket ticket,
                      cluster::ShardId home,
                      const std::vector<graph::VertexId>& members);
  // Releases `ticket`'s claims in every shard's coordinator.
  void ReleaseAll(RunState& run, cluster::Ticket ticket);
  // Checks (and clears) the wounded flag in every coordinator.
  bool AnyWounded(RunState& run, cluster::Ticket ticket);

  const data::Dataset& dataset_;
  const graph::Wpg& graph_;
  core::PolicyFactory policy_factory_;
  ShardedServiceConfig config_;
};

}  // namespace nela::sim

#endif  // NELA_SIM_SHARDED_SERVICE_DRIVER_H_
