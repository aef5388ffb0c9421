// Shared plumbing for the figure-reproduction benches: flag definitions,
// scenario setup, stdout table formatting, and CSV emission.

#ifndef NELA_BENCH_BENCH_COMMON_H_
#define NELA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>

#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/status.h"

namespace nela::bench {

// Parses the registered flags. On failure, sets *exit_code (0 for --help,
// 1 for a real parse error) and returns false; the bench should return
// *exit_code immediately.
inline bool ParseFlagsOrExit(util::FlagParser& flags, int argc, char** argv,
                             int* exit_code) {
  const util::Status status = flags.Parse(argc, argv);
  if (status.ok()) return true;
  *exit_code = status.code() == util::StatusCode::kOutOfRange ? 0 : 1;
  return false;
}

// Builds the standard scenario for `user_count` users (WPG threshold
// `delta`, Table I's by default), reporting failures to stderr. On failure,
// sets *exit_code to 1 and returns nullopt.
inline std::optional<sim::Scenario> BuildScenarioOrExit(
    uint32_t user_count, int* exit_code,
    double delta = sim::ScenarioConfig{}.delta) {
  sim::ScenarioConfig config;
  config.user_count = user_count;
  config.delta = delta;
  auto scenario = sim::BuildScenario(config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    *exit_code = 1;
    return std::nullopt;
  }
  return std::move(scenario).value();
}

// Writes `csv` to <output_dir>/<name>.csv and reports the destination (or
// the failure) on the console. Returns the write status so benches can
// propagate CSV emission failures as a nonzero exit code.
inline util::Status EmitCsv(const util::CsvWriter& csv,
                            const std::string& output_dir,
                            const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories(output_dir, ec);  // best effort
  const std::string path = output_dir + "/" + name + ".csv";
  util::Status status = csv.WriteToFile(path);
  if (status.ok()) {
    std::printf("  -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "  (csv not written: %s)\n",
                 status.ToString().c_str());
  }
  return status;
}

// Prints a row of cells with fixed column width; numeric cells are
// reformatted to 5 significant digits for readability (the CSVs keep full
// precision).
inline void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    if (end != cell.c_str() && end != nullptr && *end == '\0') {
      std::printf("%-22.5g", value);
    } else {
      std::printf("%-22s", cell.c_str());
    }
  }
  std::printf("\n");
}

inline void PrintRule(size_t columns) {
  for (size_t i = 0; i < columns * 22; ++i) std::printf("-");
  std::printf("\n");
}

}  // namespace nela::bench

#endif  // NELA_BENCH_BENCH_COMMON_H_
