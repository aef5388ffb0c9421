// Chaos experiment: the full two-phase cloaking pipeline under injected
// message loss, link latency/timeouts, and node churn.
//
// The paper's §VI experiments measure communication cost on a perfect
// network; its §VII robustness discussion asks what the protocols do when
// the network is not perfect. This driver answers that quantitatively: it
// runs a request workload through the fault-tolerant engine against a
// seeded FaultPlan and reports the success/degradation breakdown, the
// added traffic from retransmissions, and the anonymity level actually
// achieved -- the robustness/overhead tradeoff as a tracked benchmark.
// Everything is seeded, so a configuration reproduces bit-for-bit.

#ifndef NELA_SIM_CHAOS_EXPERIMENT_H_
#define NELA_SIM_CHAOS_EXPERIMENT_H_

#include <cstdint>

#include "net/fault_plan.h"
#include "net/retry.h"
#include "sim/scenario.h"
#include "util/status.h"

namespace nela::sim {

struct ChaosExperimentConfig {
  uint32_t k = 10;
  uint32_t requests = 500;  // S
  uint64_t workload_seed = 7;

  // Fault injection. `fault_seed` drives loss/latency sampling and the
  // backoff jitter; `churn_rate` is the fraction of the population
  // scheduled to crash over the run, one node every
  // `churn_attempt_spacing` send attempts (victims drawn from the fault
  // seed as well).
  uint64_t fault_seed = 1234;
  double loss_probability = 0.0;
  net::LatencyModel latency;
  double churn_rate = 0.0;
  uint64_t churn_attempt_spacing = 2000;

  // Recovery parameters.
  net::BackoffPolicy retry;
  uint32_t max_phase_retries = 3;
};

struct ChaosExperimentResult {
  uint32_t requests = 0;
  // Completed with anonymity satisfied.
  uint32_t succeeded = 0;
  // Completed, but degraded: anonymity unsatisfied (cluster below k,
  // bounding deadline exceeded, ...). Structured, never exposing.
  uint32_t degraded = 0;
  // Request failed outright (host offline / crashed mid-request).
  uint32_t failed = 0;
  double success_rate = 0.0;

  // Traffic accounting over the whole run.
  uint64_t delivered_messages = 0;
  uint64_t delivered_bytes = 0;
  uint64_t dropped_messages = 0;
  uint64_t dropped_bytes = 0;
  uint64_t timed_out_messages = 0;
  uint64_t dead_endpoint_attempts = 0;
  uint64_t retries = 0;
  uint64_t retransmitted_bytes = 0;
  // Retransmissions per delivered message: the bandwidth overhead the
  // fault-tolerance layer pays for the achieved success rate.
  double retry_overhead = 0.0;

  // Degradation accounting summed over requests.
  uint64_t members_lost = 0;
  uint64_t phases_retried = 0;

  // Achieved anonymity: cluster size averaged over succeeded requests
  // (>= k by construction), and mean cloaked area over succeeded requests.
  double avg_achieved_anonymity = 0.0;
  double avg_region_area = 0.0;

  // Non-exposure audit: an audit::AdversaryObserver, with every user
  // coordinate tainted, watches the network for the whole run -- chaos runs
  // are exactly where failure paths could leak. Any non-zero violation
  // count is a protocol bug: the observer reconstructed more about some
  // user than ranks + published region allow.
  uint64_t audited_messages = 0;
  uint64_t exposure_violations = 0;
};

[[nodiscard]] util::Result<ChaosExperimentResult> RunChaosExperiment(
    const Scenario& scenario, const ChaosExperimentConfig& config);

}  // namespace nela::sim

#endif  // NELA_SIM_CHAOS_EXPERIMENT_H_
