// The non-exposure cloaking engine: the complete host-user workflow of
// Fig. 3.
//
//   (1) If the host already has a cloaked region (it participated in an
//       earlier cloaking), skip everything and reuse it.
//   (2) Phase 1 -- proximity k-clustering via the configured Clusterer
//       (distributed t-Conn, centralized t-Conn at an anonymizer, or the
//       kNN baseline).
//   (3) Phase 2 -- secure bounding over the cluster members' coordinates
//       via the configured increment policy; the resulting box becomes the
//       shared cloaked region of every member.
//
// The engine never reads a member coordinate directly during phase 2: the
// points are wrapped into bounding::PrivateScalar per axis run (OPT mode is
// explicit and exists for benchmarking only).
//
// Degradation semantics under churn and loss (see DESIGN.md "Fault model &
// degradation semantics"): members that crash between phase 1 and phase 2
// -- or mid-bounding -- are dropped and bounding re-runs over the
// survivors as long as at least k of them remain; below k, or once the
// bounding retry budget is exhausted, the outcome reports
// anonymity_satisfied = false with a structured DegradationReport and an
// empty region. No failure path ever exposes a member coordinate.

#ifndef NELA_CORE_CLOAKING_ENGINE_H_
#define NELA_CORE_CLOAKING_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/registry.h"
#include "core/policy_factory.h"
#include "core/request_context.h"
#include "data/dataset.h"
#include "geo/rect.h"
#include "net/network.h"
#include "net/retry.h"
#include "util/rng.h"
#include "util/status.h"

namespace nela::core {

// Structured account of everything fault tolerance had to do (or failed to
// do) for one request. failure_reason never contains a coordinate or a
// bound value -- only counters, node ids, and status text.
//
// Assembled by core::FinalizeDegradation from the per-stage records and
// the request's scoped traffic accounting: the aggregate fields below are
// sums/projections of `stages`, kept for ergonomic access.
struct DegradationReport {
  // One record per pipeline stage, in execution order (including skipped
  // stages, with ran = false). The authoritative per-stage account.
  std::vector<StageRecord> stages;
  // Message retransmissions and observed timeouts across both phases
  // (from the request's net::RequestScope).
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t retransmitted_bytes = 0;
  // Members that churned out of the cluster (phase 1 exclusions plus
  // crashes between/within phases). Summed over stage records.
  uint32_t members_lost = 0;
  // Times phase 2 was re-run over the surviving members.
  uint32_t phases_retried = 0;
  // kOk on the happy path; kFailedPrecondition (survivors < k),
  // kDeadlineExceeded (retry budget / iteration cap / request deadline /
  // queue-wait shed), or kUnavailable (irrecoverable churn, admission-queue
  // overflow, crash abort) otherwise. The code of the first stage record
  // that did not finish kOk.
  util::StatusCode failure_code = util::StatusCode::kOk;
  std::string failure_reason;
  // Times core::FinalizeDegradation sealed this report. Every delivered
  // outcome -- degraded or not, shed or admitted -- must show exactly 1:
  // 0 means an unfinalized report escaped a driver, 2+ means a request was
  // double-finalized (e.g. processed twice without a fresh outcome).
  uint32_t finalize_count = 0;

  bool degraded() const {
    return failure_code != util::StatusCode::kOk || members_lost > 0 ||
           phases_retried > 0 || retries > 0;
  }
};

struct CloakingOutcome {
  cluster::ClusterId cluster_id = cluster::kNoCluster;
  geo::Rect region;
  // Probe mechanisms (geo-indistinguishability, dummy-location sets) query
  // the LBS with points instead of a region; empty for the native scheme.
  std::vector<geo::Point> probes;
  // Step (1): both phases skipped, region served from the registry.
  bool region_reused = false;
  // Phase 1 answered from the registry (cluster formed earlier, but its
  // region had not been computed yet).
  bool cluster_reused = false;
  // k-anonymity satisfied (false when the host's remaining component was
  // smaller than k, or churn/loss degraded the request -- see
  // degradation.failure_code).
  bool anonymity_satisfied = true;
  // Phase-1 communication cost: involved users (adjacency messages).
  uint64_t clustering_messages = 0;
  // Phase-2 cost: verification round trips across the four axis runs.
  uint64_t bounding_verifications = 0;
  uint32_t bounding_iterations = 0;
  double bounding_cpu_seconds = 0.0;
  DegradationReport degradation;
};

// How phase 2 computes the box.
enum class BoundingMode {
  kSecureProtocol,  // progressive bounding with the configured policy
  kOptBaseline,     // exact box; exposes coordinates (benchmark only)
};

class CloakingEngine {
 public:
  // `dataset` is the user population (coordinates are private inputs to
  // phase 2); `clusterer` runs phase 1 against `registry`. All referenced
  // objects must outlive the engine.
  CloakingEngine(const data::Dataset& dataset,
                 std::unique_ptr<cluster::Clusterer> clusterer,
                 cluster::Registry* registry, PolicyFactory policy_factory,
                 BoundingMode mode = BoundingMode::kSecureProtocol,
                 net::Network* network = nullptr);

  // Configures loss recovery for phase 2 and how many times bounding is
  // re-run over survivors after mid-protocol churn. `jitter_rng` (may be
  // null, not owned) makes backoff jitter deterministic per seed.
  void SetRetryPolicy(const net::BackoffPolicy& policy, util::Rng* jitter_rng,
                      uint32_t max_phase_retries = 3);

  // Seed from which every request's private RNG sub-stream is derived (see
  // RequestContext::DeriveStreamSeed). Affects only contexts the engine
  // creates itself via the one-argument RequestCloaking.
  void set_master_seed(uint64_t seed) { master_seed_ = seed; }

  // Executes the workflow for one host request. Fails with kUnavailable
  // when the host itself is offline; cluster- or network-level degradation
  // is reported inside the outcome instead (see DegradationReport). Creates
  // a fresh RequestContext (ordinal = number of prior requests on this
  // engine) and runs the staged pipeline.
  [[nodiscard]] util::Result<CloakingOutcome> RequestCloaking(data::UserId host);

  // Same workflow against a caller-owned context: the caller picks the
  // RNG sub-stream, deadline, and trace sink, and reads the per-request
  // accounting back from ctx.scope() afterwards.
  [[nodiscard]] util::Result<CloakingOutcome> RequestCloaking(data::UserId host,
                                                RequestContext& ctx);

  const cluster::Registry& registry() const { return *registry_; }
  cluster::Clusterer& clusterer() { return *clusterer_; }

 private:
  const data::Dataset& dataset_;
  std::unique_ptr<cluster::Clusterer> clusterer_;
  cluster::Registry* registry_;
  PolicyFactory policy_factory_;
  BoundingMode mode_;
  net::Network* network_;
  net::BackoffPolicy retry_policy_;
  util::Rng* retry_rng_ = nullptr;
  uint32_t max_phase_retries_ = 3;
  uint64_t master_seed_ = 0;
  uint64_t next_ordinal_ = 0;
};

}  // namespace nela::core

#endif  // NELA_CORE_CLOAKING_ENGINE_H_
