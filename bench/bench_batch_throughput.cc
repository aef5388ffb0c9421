// Batch throughput bench: the service driver in closed-batch mode (K=1,
// every request admitted at t=0, no durability) swept over worker-thread
// counts and batch sizes S. Per cell it reports
// requests/sec, wall-clock latency percentiles, and the contention profile
// (claim conflicts/wounds, speculation aborts/retries) -- plus the registry
// digest and reciprocity audit, which must agree across thread counts for
// the same S.
//
// --delta sets the WPG proximity threshold (Table I's 2e-3 by default; pass
// 2e-3 * sqrt(104770 / users) to hold the graph density of Table I fixed
// while varying N). Results go to stdout, <output_dir>/batch_throughput.csv
// and the JSON rows <output_dir>/BENCH_throughput.json (path overridable
// via NELA_BENCH_THROUGHPUT_JSON), which also record nproc, compiler and
// build type.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/policy_factory.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr char kCompiler[] = "gcc " __VERSION__;
#else
constexpr char kCompiler[] = "unknown";
#endif

struct ThroughputRow {
  uint32_t threads = 0;
  int64_t requests = 0;
  double requests_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  uint64_t speculation_aborts = 0;
  uint64_t registry_digest = 0;
};

bool WriteThroughputJson(const std::string& output_dir, int64_t users,
                         double delta, const std::vector<ThroughputRow>& rows) {
  const char* env_path = std::getenv("NELA_BENCH_THROUGHPUT_JSON");
  const std::string path =
      env_path != nullptr ? env_path : output_dir + "/BENCH_throughput.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_batch_throughput: cannot write %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"bench_batch_throughput\",\n"
               "  \"nproc\": %u,\n  \"compiler\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n  \"users\": %lld,\n"
               "  \"delta\": %.6g,\n  \"rows\": [\n",
               nela::util::ThreadPool::DefaultThreadCount(), kCompiler,
               NELA_BUILD_TYPE, static_cast<long long>(users), delta);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"threads\": %u, \"S\": %lld, \"requests_per_sec\": %.3f, "
        "\"p50_latency_ms\": %.4f, \"p99_latency_ms\": %.4f, "
        "\"speculation_aborts\": %" PRIu64 ", \"registry_digest\": "
        "\"%016" PRIx64 "\"}%s\n",
        r.threads, static_cast<long long>(r.requests), r.requests_per_sec,
        r.p50_latency_ms, r.p99_latency_ms, r.speculation_aborts,
        r.registry_digest, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool ok = std::fclose(f) == 0;
  if (ok) std::printf("  -> %s\n", path.c_str());
  return ok;
}

int Run(int argc, char** argv) {
  int64_t users = 20000;
  int64_t k = 5;
  int64_t master_seed = 99;
  int64_t workload_seed = 17;
  double delta = 2e-3;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddDouble("delta", &delta, "WPG proximity threshold");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("master_seed", &master_seed,
                 "seed of per-request RNG sub-streams");
  flags.AddInt64("workload_seed", &workload_seed,
                 "seed selecting which hosts issue requests");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Batch driver: throughput and contention, "
              "threads x S ===\n");
  std::printf("users=%lld delta=%g k=%lld master_seed=%lld "
              "workload_seed=%lld\n\n",
              static_cast<long long>(users), delta,
              static_cast<long long>(k), static_cast<long long>(master_seed),
              static_cast<long long>(workload_seed));

  std::optional<nela::sim::Scenario> scenario =
      nela::bench::BuildScenarioOrExit(static_cast<uint32_t>(users),
                                       &exit_code, delta);
  if (!scenario.has_value()) return exit_code;

  const nela::core::BoundingParams params;
  nela::util::CsvWriter csv;
  csv.SetHeader({"threads", "S", "requests_per_sec", "wall_seconds",
                 "p50_latency_ms", "p99_latency_ms", "claim_conflicts",
                 "claim_wounds", "speculation_aborts", "speculation_retries",
                 "clusters_formed", "registry_digest", "reciprocity_ok"});
  nela::bench::PrintRow({"threads", "S", "req/sec", "p50 ms", "p99 ms",
                         "conflicts", "spec aborts", "digest"});
  nela::bench::PrintRule(8);
  std::vector<ThroughputRow> rows;
  for (int64_t requests : {256ll, 1024ll}) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      nela::sim::ShardedServiceConfig config;
      config.service.k = static_cast<uint32_t>(k);
      config.service.requests = static_cast<uint32_t>(requests);
      config.service.threads = threads;
      config.service.master_seed = static_cast<uint64_t>(master_seed);
      config.service.workload_seed = static_cast<uint64_t>(workload_seed);
      nela::sim::ShardedServiceDriver driver(
          scenario->dataset, scenario->graph,
          nela::core::MakeSecurePolicyFactory(params), config);
      auto result = driver.Run();
      if (!result.ok()) {
        std::fprintf(stderr, "batch failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const nela::sim::ServiceResult& r = result.value().service;
      if (!r.reciprocity_ok) {
        std::fprintf(stderr,
                     "reciprocity violated at threads=%u S=%lld -- a user "
                     "landed in more than one cluster\n",
                     threads, static_cast<long long>(requests));
        return 1;
      }
      char digest[32];
      std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                    r.registry_digest);
      nela::bench::PrintRow(
          {std::to_string(threads), std::to_string(requests),
           nela::util::CsvWriter::Cell(r.requests_per_sec),
           nela::util::CsvWriter::Cell(r.p50_latency_ms),
           nela::util::CsvWriter::Cell(r.p99_latency_ms),
           std::to_string(r.claim_conflicts),
           std::to_string(r.speculation_aborts), digest});
      csv.AddRow({std::to_string(threads), std::to_string(requests),
                  nela::util::CsvWriter::Cell(r.requests_per_sec),
                  nela::util::CsvWriter::Cell(r.wall_seconds),
                  nela::util::CsvWriter::Cell(r.p50_latency_ms),
                  nela::util::CsvWriter::Cell(r.p99_latency_ms),
                  std::to_string(r.claim_conflicts),
                  std::to_string(r.claim_wounds),
                  std::to_string(r.speculation_aborts),
                  std::to_string(r.speculation_retries),
                  std::to_string(r.clusters_formed), digest,
                  r.reciprocity_ok ? "1" : "0"});
      rows.push_back(ThroughputRow{threads, requests, r.requests_per_sec,
                                   r.p50_latency_ms, r.p99_latency_ms,
                                   r.speculation_aborts, r.registry_digest});
    }
  }
  if (!nela::bench::EmitCsv(csv, output_dir, "batch_throughput").ok()) {
    return 1;
  }
  return WriteThroughputJson(output_dir, users, delta, rows) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
