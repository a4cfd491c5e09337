// The parallel batch-analysis engine.
//
// A BatchEngine takes a set of LIS instances (generated, loaded from netlist
// files, or the COFDM SoC) and a list of analyses, runs them across a
// fixed-size std::thread pool fed by a shared work queue, and returns
// results that are byte-identical regardless of thread count:
//   * the unit of work is one instance (all of its requested analyses run
//     consecutively in one worker, sharing a per-instance AnalysisCache);
//   * results land in a vector slot preassigned by input order;
//   * the exact solver runs under a deterministic node budget by default
//     (opt into wall-clock timeouts only when reproducibility is not
//     required — cut-offs then depend on machine load).
// Each worker collects its own Metrics (stage timers + counters), merged
// into BatchResult::metrics after the pool joins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "lid_api.hpp"
#include "util/rational.hpp"

namespace lid::engine {

/// The analyses the engine can stack on an instance.
enum class AnalysisKind {
  kIdealMst,      ///< θ(G), infinite queues
  kPracticalMst,  ///< θ(d[G]), finite queues
  kQsHeuristic,   ///< queue sizing, paper heuristic
  kQsExact,       ///< queue sizing, exact branch-and-bound (budgeted)
  kQsLazy,        ///< queue sizing, lazy constraint generation (no up-front
                  ///< cycle enumeration; warm-started Howard separation)
  kRsInsertion,   ///< greedy relay-station insertion repair
  kRateSafety,    ///< Sec. III-C producer/consumer rate hazards
  kDes,           ///< deterministic-limit discrete-event simulation (src/des):
                  ///< exact periodic throughput + backpressure stall counters
};

/// Short stable token used in CLIs and serialized output ("mst-ideal", ...).
const char* to_string(AnalysisKind kind);

/// Parses a comma-separated analysis list ("mst-ideal,qs-heuristic").
/// Accepted tokens: mst-ideal, mst-practical, qs-heuristic, qs-exact,
/// qs-lazy, rs-insertion, rate-safety, des, and the umbrella "all".
Result<std::vector<AnalysisKind>> parse_analyses(const std::string& csv);

/// Engine configuration.
struct EngineOptions {
  /// Fixed pool size; values < 1 are clamped to 1.
  int threads = 1;
  /// Analyses to run per instance, in this order.
  std::vector<AnalysisKind> analyses = {AnalysisKind::kIdealMst, AnalysisKind::kPracticalMst,
                                        AnalysisKind::kQsHeuristic};
  /// Deterministic search budget for kQsExact (0 = unlimited).
  std::int64_t exact_max_nodes = 200'000;
  /// Optional wall-clock cap for kQsExact; breaks run-to-run determinism
  /// under load, so it is off by default.
  double exact_timeout_ms = 0.0;
  /// Relay stations kRsInsertion may add.
  int rs_budget = 2;
  /// Cycle-enumeration cap for the queue-sizing analyses (0 = unlimited).
  std::size_t max_cycles = 500'000;
  /// Cycle horizon for kDes (the run usually exits earlier via recurrence
  /// detection; the horizon bounds pathological transients).
  std::int64_t des_horizon = 30'000;
};

/// Everything the engine learned about one instance. Fields are present only
/// when the corresponding analysis was requested.
struct InstanceResult {
  std::size_t index = 0;
  std::string name;
  std::size_t cores = 0;
  std::size_t channels = 0;
  int relay_stations = 0;
  /// Nonempty when some analysis failed; the remaining fields may be partial.
  std::string error;

  std::optional<util::Rational> theta_ideal;
  std::optional<util::Rational> theta_practical;
  std::optional<std::int64_t> qs_heuristic_total;
  std::optional<std::int64_t> qs_exact_total;
  bool qs_exact_proved = false;
  /// MST after applying the best computed sizing (exact when proven, else
  /// heuristic).
  std::optional<util::Rational> qs_achieved;
  /// Cycles enumerated while building the QS problem.
  std::optional<std::size_t> qs_cycles = {};
  bool qs_truncated = false;
  /// kQsLazy only: separation rounds and constraints generated.
  std::optional<std::int64_t> qs_lazy_iterations;
  std::optional<std::int64_t> qs_cycles_generated;
  std::optional<int> rs_added;
  bool rs_reached_ideal = false;
  std::optional<std::size_t> rate_hazards;
  /// kDes: simulated throughput (exact when des_periodic), event count, and
  /// backpressure stall events over the run.
  std::optional<util::Rational> des_throughput;
  std::optional<std::int64_t> des_events;
  std::optional<std::int64_t> des_stalls;
  bool des_periodic = false;

  /// One deterministic "key=value" line (no timings, stable field order).
  [[nodiscard]] std::string serialize() const;
};

/// The batch outcome: per-instance results in input order + merged metrics.
struct BatchResult {
  std::vector<InstanceResult> results;
  Metrics metrics;

  /// Deterministic multi-line report: a header plus one line per instance.
  /// Byte-identical across thread counts and (given deterministic budgets)
  /// across runs; timings live only in `metrics`.
  [[nodiscard]] std::string serialize() const;
};

/// The engine. Construct once, run any number of batches.
class BatchEngine {
 public:
  explicit BatchEngine(EngineOptions options = {});

  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Analyzes every instance. Invalid handles and per-instance analysis
  /// failures are captured in InstanceResult::error; the batch itself always
  /// completes.
  [[nodiscard]] BatchResult run(const std::vector<Instance>& instances) const;

 private:
  EngineOptions options_;
};

}  // namespace lid::engine
