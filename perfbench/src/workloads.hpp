// The three workloads and what each run reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 20.0;
  bool trace = false;
  std::string bin_dir;   ///< where lid_serve and lid_cluster were built
  std::string work_dir;  ///< where sockets, logs and traces go (inside the source tree)
};

/// name -> (value, unit)
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct RunResult {
  bool correct = true;  ///< every output checked equal to its reference
  Ledger ledger;
  Metrics end_to_end;
  Metrics per_layer;    ///< filled by traced runs
  /// The workload's headline timing in ms, compared between the untraced
  /// and the traced run to give the tracing overhead.
  double headline_ms = 0.0;
  /// Compact JSON with sample counts, generator lateness, failure kinds and
  /// other facts behind the metrics.
  std::string detail_json = "{}";
  /// Traced runs: where the spans were written and their totals per name.
  std::string trace_json = "{}";
};

RunResult run_scale_certify(const RunConfig& config);
RunResult run_serve_hot(const RunConfig& config);
RunResult run_serve_cold(const RunConfig& config);

}  // namespace perfbench
