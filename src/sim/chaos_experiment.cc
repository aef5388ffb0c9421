#include "sim/chaos_experiment.h"

#include <memory>
#include <vector>

#include "audit/observer.h"
#include "audit/taint.h"
#include "cluster/distributed_tconn.h"
#include "core/cloaking_engine.h"
#include "core/policy_factory.h"
#include "net/network.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace nela::sim {

util::Result<ChaosExperimentResult> RunChaosExperiment(
    const Scenario& scenario, const ChaosExperimentConfig& config) {
  if (config.requests == 0) {
    return util::InvalidArgumentError("requests must be positive");
  }
  if (config.requests > scenario.dataset.size()) {
    return util::InvalidArgumentError("more requests than users");
  }
  if (config.churn_rate < 0.0 || config.churn_rate > 1.0) {
    return util::InvalidArgumentError("churn rate must be in [0, 1]");
  }
  if (config.churn_rate > 0.0 && config.churn_attempt_spacing == 0) {
    return util::InvalidArgumentError(
        "churn requires a positive attempt spacing");
  }
  const uint32_t n = scenario.dataset.size();

  net::Network network(n);
  net::FaultPlan plan;
  plan.seed = config.fault_seed;
  plan.loss_probability = config.loss_probability;
  plan.latency = config.latency;
  // Churn schedule: victims drawn without replacement, one crash every
  // churn_attempt_spacing send attempts -- spread across the run instead
  // of front-loaded, so crashes land mid-protocol.
  util::Rng churn_rng(config.fault_seed ^ 0x9e3779b97f4a7c15ull);
  const uint32_t victim_count =
      static_cast<uint32_t>(config.churn_rate * static_cast<double>(n));
  const std::vector<uint32_t> victims =
      churn_rng.SampleWithoutReplacement(n, victim_count);
  for (uint32_t i = 0; i < victim_count; ++i) {
    plan.crashes.push_back(net::CrashEvent{
        victims[i],
        (static_cast<uint64_t>(i) + 1) * config.churn_attempt_spacing});
  }
  util::Status installed = network.InstallFaultPlan(plan);
  if (!installed.ok()) return installed;

  // Wire-level non-exposure audit: every user's coordinates are tainted,
  // and the observer watches all traffic for the whole run.
  audit::TaintSet taint;
  audit::ObserverConfig observer_config;
  observer_config.taint = &taint;
  audit::AdversaryObserver observer(observer_config);
  for (data::UserId user = 0; user < n; ++user) {
    taint.TaintPoint(user, scenario.dataset.point(user));
  }
  network.SetTap(&observer);

  cluster::Registry registry(n);
  auto clusterer = std::make_unique<cluster::DistributedTConnClusterer>(
      scenario.graph, config.k, &registry, &network);
  util::Rng jitter_rng(config.fault_seed + 1);
  clusterer->SetRetryPolicy(config.retry, &jitter_rng);

  core::BoundingParams bounding_params;
  bounding_params.density = static_cast<double>(n);
  core::CloakingEngine engine(
      scenario.dataset, std::move(clusterer), &registry,
      core::MakeSecurePolicyFactory(bounding_params),
      core::BoundingMode::kSecureProtocol, &network);
  engine.SetRetryPolicy(config.retry, &jitter_rng, config.max_phase_retries);

  util::Rng workload_rng(config.workload_seed);
  const std::vector<data::UserId> hosts =
      SampleWorkload(n, config.requests, workload_rng);

  ChaosExperimentResult result;
  result.requests = config.requests;
  double anonymity_sum = 0.0;
  double area_sum = 0.0;
  for (data::UserId host : hosts) {
    auto outcome = engine.RequestCloaking(host);
    if (!outcome.ok()) {
      if (outcome.status().code() == util::StatusCode::kUnavailable) {
        // Host offline / crashed mid-request: an expected chaos outcome.
        ++result.failed;
        continue;
      }
      return outcome.status();  // configuration errors still propagate
    }
    const core::CloakingOutcome& o = outcome.value();
    result.members_lost += o.degradation.members_lost;
    result.phases_retried += o.degradation.phases_retried;
    if (o.anonymity_satisfied) {
      ++result.succeeded;
      anonymity_sum += static_cast<double>(
          registry.info(o.cluster_id).members.size());
      area_sum += o.region.Area();
    } else {
      ++result.degraded;
    }
  }
  result.success_rate = static_cast<double>(result.succeeded) /
                        static_cast<double>(config.requests);
  if (result.succeeded > 0) {
    result.avg_achieved_anonymity =
        anonymity_sum / static_cast<double>(result.succeeded);
    result.avg_region_area = area_sum / static_cast<double>(result.succeeded);
  }

  result.delivered_messages = network.total().messages;
  result.delivered_bytes = network.total().bytes;
  result.dropped_messages = network.dropped_messages();
  result.dropped_bytes = network.dropped_bytes();
  result.timed_out_messages = network.timed_out_messages();
  result.dead_endpoint_attempts = network.dead_endpoint_attempts();
  const net::RetryStats retry = network.total_retry_stats();
  result.retries = retry.retries;
  result.retransmitted_bytes = retry.retransmitted_bytes;
  if (result.delivered_messages > 0) {
    result.retry_overhead =
        static_cast<double>(result.retries) /
        static_cast<double>(result.delivered_messages);
  }
  result.audited_messages = observer.messages_seen();
  result.exposure_violations = observer.violation_count();
  network.SetTap(nullptr);
  return result;
}

}  // namespace nela::sim
