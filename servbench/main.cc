// servbench: what one cloaking request costs through the whole anonymizer
// service, end to end and layer by layer.
//
//   servbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// Every invocation builds the serving state several times (setup_s),
// replays the first run's requests on one thread with spans around every
// layer call, runs sim::ShardedServiceDriver with tracing off until S
// seconds are used up (a closed loop: min(2, nproc) worker threads, all
// requests admitted at t=0), and times restarts from the durable state in
// fresh processes. The last line of stdout is one JSON object; --trace=0
// reports the end-to-end metrics, --trace=1 the per-layer ones. The
// correctness gate (see Gate() below) makes the run exit 1 and counts its
// failures in cloak_fail_frac. Nothing printed names a coordinate, a
// region bound or a user id. servbench/README.md documents the metrics.

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/policy_factory.h"
#include "replay.h"
#include "setup.h"
#include "spans.h"
#include "timed.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/status.h"

namespace nela::servbench {
namespace {

// Seed that later performance claims must also be checked on; never used
// while tuning a change.
constexpr int64_t kHeldOutSeed = 90210;
// Worker threads of the timed runs: two clients, never more than cores.
// On a shared 4-core host, four clients measured preemption of lock holders
// rather than the service: their rps and tail latency spread 2-4x wider
// from run to run than two clients', at about the same throughput.
constexpr uint32_t kClients = 2;
// setup_s is the median of at least this many builds spanning at least
// this long.
constexpr size_t kMinSetupRepeats = 5;
constexpr double kSetupSeconds = 1.0;
// Recoveries timed after each timed run.
constexpr uint32_t kRecoverRepeats = 15;

// Seeds of timed run `index`: run 0 uses --seed itself, later runs draw a
// fresh request sequence each, so one invocation averages over several
// samples of the population. The stride keeps the sequences of distinct
// --seed values below it disjoint.
uint64_t SubSeed(int64_t seed, uint32_t index) {
  constexpr uint64_t kStride = 1000003;
  return static_cast<uint64_t>(seed) + kStride * index;
}

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Median(const std::vector<double>& values) {
  return util::Percentile(values, 0.5);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%llx",
                static_cast<unsigned long long>(info.f_type));
  return hex;
}

// Removes the run's working directory however main() returns.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A request-path layer: the span label, and the name and scale of its
// self-time-per-call metric. The other metrics of a layer are
// <label>.calls, <label>.cpu_us and <label>.share.
struct LayerMetricSpec {
  const char* span;
  const char* time_metric;
  double scale_from_us;
  const char* unit;
};

constexpr LayerMetricSpec kRequestLayers[] = {
    {"cluster.snapshot", "cluster.snapshot_us", 1.0, "us"},
    {"cluster.tconn", "cluster.tconn_us", 1.0, "us"},
    {"cluster.claim", "cluster.claim_us", 1.0, "us"},
    {"cluster.register", "cluster.register_us", 1.0, "us"},
    {"cluster.release", "cluster.release_us", 1.0, "us"},
    {"durability.register_batch", "durability.register_batch_us", 1.0, "us"},
    {"durability.checkpoint", "durability.checkpoint_ms", 1e-3, "ms"},
    {"core.pipeline", "core.pipeline_self_us", 1.0, "us"},
    {"core.claim_commit", "core.claim_commit_us", 1.0, "us"},
    {"bounding.secure_bound", "bounding.secure_bound_us", 1.0, "us"},
    {"core.publish", "core.publish_self_us", 1.0, "us"},
    {"durability.set_region", "durability.set_region_us", 1.0, "us"},
    {"core.trace", "core.trace_us", 1.0, "us"},
    {"lbs.range_query", "lbs.range_query_us", 1.0, "us"},
};

struct Measurements {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> build_wpg_s;
  std::vector<double> index_s;
  graph::WpgBuildStats wpg_stats;
  std::vector<RunFacts> runs;
  // Restart probe of a non-durable workload: one durable, WAL-only run.
  std::optional<RunFacts> probe;
  // Restart cost and durable footprint, one entry per timed recovery and
  // per measured directory.
  std::vector<double> recover_s;
  std::vector<double> disk_bytes;
  ReplayResult replay;
  SpanSummary spans;
  // Untraced one-thread driver run (--trace=1 only).
  std::optional<RunFacts> one_thread;
};

// The correctness gate. Returns the violations; any one fails the run.
std::vector<std::string> Gate(const Workload& workload,
                              const Measurements& m, bool tamper_digest) {
  std::vector<std::string> violations;
  const auto add_run = [&violations](const char* what, const RunFacts& run) {
    for (const std::string& v : run.violations) {
      violations.push_back(std::string(what) + ": " + v);
    }
  };
  // Run 0 serves --seed itself; the replay, the probe and the one-thread
  // run replay the same requests.
  const uint64_t digest = m.runs.front().registry_digest;
  for (const RunFacts& run : m.runs) add_run("timed run", run);
  if (!m.replay.error.empty()) {
    violations.push_back("traced replay: " + m.replay.error);
  }
  if (m.replay.finalize_violations > 0) {
    violations.push_back("traced replay: outcomes not finalized once");
  }
  uint64_t replay_digest = m.replay.registry_digest;
  if (tamper_digest) replay_digest ^= 1;
  if (replay_digest != digest) {
    violations.push_back("traced replay digest differs from the timed runs'");
  }
  if (workload.durable && m.replay.error.empty() &&
      m.replay.recovered_digest != m.replay.registry_digest) {
    violations.push_back("traced recovery lost committed clusters");
  }
  if (m.probe.has_value()) {
    add_run("restart probe", *m.probe);
    if (m.probe->registry_digest != digest) {
      violations.push_back("durable restart probe digest differs");
    }
  }
  if (m.one_thread.has_value()) {
    add_run("one-thread run", *m.one_thread);
    if (m.one_thread->registry_digest != digest) {
      violations.push_back("one-thread driver digest differs");
    }
  }
  return violations;
}

std::vector<Metric> EndToEndMetrics(const Measurements& m, uint64_t failed,
                                    uint64_t attempted) {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  uint64_t unsatisfied = 0;
  uint64_t completed = 0;
  double messages = 0.0;
  double verifications = 0.0;
  uint64_t lbs_candidates = 0;
  uint64_t satisfied_with_region = 0;
  for (const RunFacts& run : m.runs) {
    lbs_candidates += run.lbs_candidates;
    satisfied_with_region += run.satisfied_with_region;
    latencies_ms.insert(latencies_ms.end(), run.latencies_ms.begin(),
                        run.latencies_ms.end());
    wall_s += run.wall_s;
    unsatisfied += run.unsatisfied;
    completed += run.completed;
    messages += static_cast<double>(run.clustering_messages);
    verifications += static_cast<double>(run.bounding_verifications);
  }
  const core::BoundingParams bounding;
  return {
      {"setup_s", Median(m.setup_s), "s"},
      {"cloak_rps", Ratio(static_cast<double>(completed), wall_s), "1/s"},
      {"cloak_p50_ms", util::Percentile(latencies_ms, 0.50), "ms"},
      {"cloak_p99_ms", util::Percentile(latencies_ms, 0.99), "ms"},
      {"cloak_fail_frac",
       std::min(1.0, Ratio(static_cast<double>(failed + unsatisfied),
                           static_cast<double>(attempted))),
       "frac"},
      {"comm_cost_per_req",
       Ratio(messages + bounding.cb * verifications,
             static_cast<double>(completed)),
       "msg"},
      {"lbs_candidates_per_req",
       Ratio(static_cast<double>(lbs_candidates),
             static_cast<double>(satisfied_with_region)),
       "count"},
      {"recover_s", Median(m.recover_s), "s"},
      {"disk_mb", Median(m.disk_bytes) / 1e6, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Measurements& m) {
  std::vector<Metric> out;
  const SpanSummary& spans = m.spans;
  const auto layer = [&spans](const std::string& name) {
    const auto it = spans.layers.find(name);
    return it == spans.layers.end() ? LayerTotals{} : it->second;
  };
  double accounted_us = 0.0;
  for (const auto& [name, totals] : spans.layers) {
    accounted_us += totals.request_self_us;
  }
  for (const LayerMetricSpec& spec : kRequestLayers) {
    const LayerTotals totals = layer(spec.span);
    const auto calls = static_cast<double>(totals.calls);
    const std::string label = spec.span;
    out.push_back({spec.time_metric,
                   Ratio(totals.self_us, calls) * spec.scale_from_us,
                   spec.unit});
    out.push_back({label + ".calls", calls, "count"});
    out.push_back({label + ".cpu_us", Ratio(totals.self_cpu_us, calls), "us"});
    out.push_back(
        {label + ".share", Ratio(totals.request_self_us, spans.request_us),
         "frac"});
  }
  const LayerTotals other = layer(kRequestSpan);
  const auto requests = static_cast<double>(spans.requests);
  out.push_back({"other_us", Ratio(other.self_us, requests), "us"});
  out.push_back({"other.share", Ratio(other.self_us, spans.request_us),
                 "frac"});

  out.push_back({"data.generate_s", Median(m.generate_s), "s"});
  out.push_back({"graph.build_wpg_s", Median(m.build_wpg_s), "s"});
  for (const graph::WpgPhaseStats& phase : m.wpg_stats.phases) {
    out.push_back({"graph.phase." + phase.name + "_s", phase.wall_seconds,
                   "s"});
  }
  out.push_back({"lbs.index_s", Median(m.index_s), "s"});

  const ReplayResult& replay = m.replay;
  out.push_back({"cluster.involved_per_member",
                 Ratio(static_cast<double>(replay.involved_users),
                       static_cast<double>(replay.members_clustered)),
                 "msg"});
  out.push_back({"bounding.verifications_per_call",
                 Ratio(static_cast<double>(replay.bounding_verifications),
                       static_cast<double>(
                           layer("bounding.secure_bound").calls)),
                 "count"});
  out.push_back({"core.trace_bytes_per_request",
                 Ratio(static_cast<double>(replay.trace_bytes), requests),
                 "bytes"});
  out.push_back({"net.bytes_per_request",
                 Ratio(static_cast<double>(replay.bytes_delivered), requests),
                 "bytes"});
  out.push_back({"lbs.candidates_per_query",
                 Ratio(static_cast<double>(replay.lbs_candidates),
                       static_cast<double>(layer("lbs.range_query").calls)),
                 "count"});
  out.push_back({"durability.wal_bytes",
                 static_cast<double>(replay.wal_bytes), "bytes"});
  out.push_back({"durability.checkpoint_bytes",
                 static_cast<double>(replay.checkpoint_bytes), "bytes"});
  out.push_back({"durability.recover_shards_s",
                 layer("durability.recover_shards").self_us * 1e-6, "s"});
  out.push_back({"durability.assemble_s",
                 layer("durability.assemble").self_us * 1e-6, "s"});
  out.push_back({"durability.records_replayed",
                 static_cast<double>(replay.records_replayed), "count"});

  double aborts = 0.0;
  double fresh = 0.0;
  double retries = 0.0;
  double conflicts = 0.0;
  double wounds = 0.0;
  double handoffs = 0.0;
  double reuses = 0.0;
  double completed = 0.0;
  for (const RunFacts& run : m.runs) {
    aborts += static_cast<double>(run.spec_aborts);
    fresh += static_cast<double>(run.fresh_clusters);
    retries += static_cast<double>(run.spec_retries);
    conflicts += static_cast<double>(run.claim_conflicts);
    wounds += static_cast<double>(run.claim_wounds);
    handoffs += static_cast<double>(run.cross_shard_handoffs);
    reuses += static_cast<double>(run.region_reuses);
    completed += static_cast<double>(run.completed);
  }
  const auto runs = static_cast<double>(m.runs.size());
  out.push_back({"sim.spec_abort_ratio", Ratio(aborts, fresh), "frac"});
  out.push_back({"sim.spec_retries", retries / runs, "count"});
  out.push_back({"cluster.claim_conflicts", conflicts / runs, "count"});
  out.push_back({"cluster.claim_wounds", wounds / runs, "count"});
  out.push_back({"sim.cross_shard_handoffs", handoffs / runs, "count"});
  out.push_back({"sim.region_reuse_ratio", Ratio(reuses, completed), "frac"});

  const double lbs_us = layer("lbs.range_query").request_self_us;
  out.push_back({"trace.request_us", Ratio(spans.request_us, requests), "us"});
  out.push_back({"trace.replay_s", replay.wall_s, "s"});
  const double driver_s = m.one_thread.has_value() ? m.one_thread->wall_s : 0.0;
  out.push_back({"trace.driver_1t_s", driver_s, "s"});
  // The driver runs no LBS queries, so they are left out of the comparison.
  out.push_back({"trace.overhead_frac",
                 Ratio((spans.request_us - lbs_us) * 1e-6, driver_s) - 1.0,
                 "frac"});
  out.push_back({"trace.accounted_frac",
                 Ratio(accounted_us, spans.request_us), "frac"});
  return out;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  int64_t users_override = 0;
  std::string work_root = ".bench_build/servbench-work";
  std::string git_commit = "unknown";
  std::string source_sha = "unknown";
  bool tamper_digest = false;
  std::string recover_dir;
  int64_t shards = 1;
  int64_t threads = 1;
  util::FlagParser flags;
  flags.AddString("workload", &workload_name,
                  // nela-lint: allow(shard-path) workload names, not paths
                  "fresh-104k | reuse-20k | durable-4shard-20k");
  flags.AddInt64("seed", &seed,
                 "workload_seed and master_seed of the first timed run");
  flags.AddDouble("seconds", &seconds, "measurement window of the timed runs");
  flags.AddInt64("trace", &trace,
                 "0: print end-to-end metrics, 1: print per-layer metrics");
  flags.AddInt64("users", &users_override,
                 "population override for smoke tests (0 = workload's)");
  flags.AddString("work_dir", &work_root,
                  "scratch root for durability directories");
  flags.AddString("git_commit", &git_commit, "commit being measured");
  flags.AddString("source_sha", &source_sha, "digest of the source tree");
  flags.AddBool("tamper_digest", &tamper_digest,
                "test only: corrupt the replay digest to prove the gate");
  flags.AddString("recover_dir", &recover_dir,
                  "restart mode: recover this durability directory once, "
                  "print seconds and digest, exit");
  flags.AddInt64("shards", &shards, "restart mode: shard count");
  flags.AddInt64("threads", &threads, "restart mode: recovery threads");
  const util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    return parsed.code() == util::StatusCode::kOutOfRange ? 0 : 2;
  }
  if (!kOptimized) {
    std::fprintf(stderr, "servbench: refusing to measure an unoptimised "
                         "build\n");
    return 3;
  }
  if (!recover_dir.empty()) {
    if (shards < 1 || threads < 1 || users_override < 1) return 2;
    auto timing = RecoverOnce(recover_dir, static_cast<uint32_t>(shards),
                              static_cast<uint32_t>(threads),
                              static_cast<uint32_t>(users_override));
    if (!timing.ok()) return 1;
    std::printf("%.9f %016" PRIx64 "\n", timing.value().seconds,
                timing.value().digest);
    return 0;
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || users_override < 0) {
    std::fprintf(stderr, "servbench: bad arguments (see --help)\n");
    return 2;
  }

  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const uint32_t nproc = online > 0 ? static_cast<uint32_t>(online) : 1;
  const uint32_t users = users_override > 0
                             ? static_cast<uint32_t>(users_override)
                             : workload->users;
  const WorkDir work(work_root + "/" + workload->name + "-seed" +
                     std::to_string(seed) + "-pid" +
                     std::to_string(getpid()));

  Measurements m;
  std::unique_ptr<Setup> setup;
  const util::WallTimer setup_window;
  while (m.setup_s.size() < kMinSetupRepeats ||
         setup_window.ElapsedSeconds() < kSetupSeconds) {
    setup.reset();
    auto built = BuildSetup(users);
    if (!built.ok()) {
      std::fprintf(stderr, "servbench: setup failed: %s\n",
                   util::StatusCodeName(built.status().code()));
      return 1;
    }
    setup = std::move(built).value();
    m.setup_s.push_back(setup->total_s);
    m.generate_s.push_back(setup->generate_s);
    m.build_wpg_s.push_back(setup->build_wpg_s);
    m.index_s.push_back(setup->index_s);
  }
  m.wpg_stats = setup->wpg_stats;

  core::BoundingParams bounding;
  bounding.density = static_cast<double>(users);
  const core::PolicyFactory policy = core::MakeSecurePolicyFactory(bounding);
  ServiceRunConfig config;
  config.requests = RequestCount(*workload, users);
  config.threads = std::min(kClients, nproc);
  config.shards = workload->shards;
  config.master_seed = SubSeed(seed, 0);
  config.workload_seed = config.master_seed;
  if (workload->durable) {
    config.durability_dir = work.path() + "/run";
    config.checkpoint_interval = workload->checkpoint_interval;
  }
  ServiceRunConfig probe = config;
  probe.durability_dir = work.path() + "/probe";
  if (!workload->durable) {
    // A non-durable service restarts empty. The restart cost it would pay
    // with durability on is measured on one WAL-only run of the same
    // requests, whose directory is recovered after every timed run.
    m.probe = RunService(*setup, policy, probe);
    m.disk_bytes.push_back(
        static_cast<double>(DirectoryBytes(probe.durability_dir)));
  }

  // The traced replay of run 0's requests goes first: it also warms every
  // code path, allocator and file the timed runs touch.
  ServiceRunConfig replay_config = config;
  replay_config.threads = 1;
  if (workload->durable) replay_config.durability_dir = work.path() + "/replay";
  SpanRecorder recorder;
  m.replay = Replay(*setup, policy, replay_config, recorder);
  m.spans = Summarize(recorder.spans(), kRequestSpan);

  const util::WallTimer window;
  do {
    ServiceRunConfig run = config;
    run.master_seed = SubSeed(seed, static_cast<uint32_t>(m.runs.size()));
    run.workload_seed = run.master_seed;
    RunFacts facts = RunService(*setup, policy, run);
    if (workload->durable) {
      m.disk_bytes.push_back(
          static_cast<double>(DirectoryBytes(run.durability_dir)));
      TimeRecovery(argv[0], run.durability_dir, run, users,
                   facts.registry_digest, kRecoverRepeats, facts);
      std::error_code ec;
      std::filesystem::remove_all(run.durability_dir, ec);
    } else {
      TimeRecovery(argv[0], probe.durability_dir, probe, users,
                   m.probe->registry_digest, kRecoverRepeats, *m.probe);
    }
    m.runs.push_back(std::move(facts));
  } while (window.ElapsedSeconds() < seconds);
  for (const RunFacts& run : m.runs) {
    m.recover_s.insert(m.recover_s.end(), run.recover_s.begin(),
                       run.recover_s.end());
  }
  if (m.probe.has_value()) m.recover_s = m.probe->recover_s;

  if (trace == 1) {
    ServiceRunConfig one_thread = config;
    one_thread.threads = 1;
    m.one_thread = RunService(*setup, policy, one_thread);
  }

  const std::vector<std::string> violations =
      Gate(*workload, m, tamper_digest);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RunFacts& run : m.runs) {
    attempted += run.attempted;
    failed += run.violations.empty() ? run.hard_failures : run.attempted;
  }
  // A failed cross-run check taints every timed request.
  if (!violations.empty()) failed = attempted;
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "servbench: GATE FAILED: %s\n", violation.c_str());
  }

  const std::vector<Metric> metrics =
      trace == 1 ? PerLayerMetrics(m)
                 : EndToEndMetrics(m, failed, attempted);
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  // Run metadata: everything needed to reproduce and compare the run.
  std::vector<std::pair<std::string, std::string>> meta;
  const auto add = [&meta](const char* key, std::string json_value) {
    meta.emplace_back(key, std::move(json_value));
  };
  std::string run_seeds;
  std::string run_rps;
  for (size_t i = 0; i < m.runs.size(); ++i) {
    const RunFacts& run = m.runs[i];
    run_seeds += (i > 0 ? ", " : "") +
                 std::to_string(SubSeed(seed, static_cast<uint32_t>(i)));
    run_rps += (i > 0 ? ", " : "") +
               JsonNumber(Ratio(static_cast<double>(run.completed),
                                run.wall_s));
  }
  add("workload", JsonString(workload->name));
  add("seed", std::to_string(seed));
  add("run_seeds", "[" + run_seeds + "]");
  add("held_out_seed", std::to_string(kHeldOutSeed));
  add("nproc", std::to_string(nproc));
  add("threads", std::to_string(config.threads));
  add("compiler", JsonString(kCompiler));
  add("build_type", JsonString(SERVBENCH_BUILD_TYPE));
  add("optimized", "true");
  add("git_commit", JsonString(git_commit));
  add("source_sha", JsonString(source_sha));
  add("users", std::to_string(users));
  add("requests_per_run", std::to_string(config.requests));
  add("k", std::to_string(config.k));
  add("shards", std::to_string(config.shards));
  add("durable", workload->durable ? "true" : "false");
  add("checkpoint_interval", std::to_string(config.checkpoint_interval));
  add("filesystem", JsonString(FilesystemName(work.path())));
  add("flush_policy",
      JsonString("fflush per WAL record and checkpoint, no fsync: survives "
                 "a process crash, not power loss"));
  add("timed_runs", std::to_string(m.runs.size()));
  add("run_rps", "[" + run_rps + "]");
  // Latency percentiles are over the requests of every timed run.
  size_t latency_samples = 0;
  for (const RunFacts& run : m.runs) {
    latency_samples += run.latencies_ms.size();
  }
  add("latency_samples", std::to_string(latency_samples));
  add("p99_tail_samples", std::to_string(latency_samples / 100));
  add("setup_repeats", std::to_string(m.setup_s.size()));
  add("recover_samples", std::to_string(m.recover_s.size()));
  add("registry_digest", JsonString(Hex(m.runs.front().registry_digest)));
  add("replay_digest", JsonString(Hex(m.replay.registry_digest)));
  add("gate", violations.empty() ? "\"pass\"" : "\"fail\"");
  std::string meta_json = "{\"servbench_meta\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    meta_json += (i > 0 ? ", " : "") + JsonString(meta[i].first) + ": " +
                 meta[i].second;
  }
  std::printf("%s}}\n", meta_json.c_str());

  std::string json = "{\"correct\": ";
  json += violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace nela::servbench

int main(int argc, char** argv) { return nela::servbench::Main(argc, argv); }
