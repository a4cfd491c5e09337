// Per-instance memoization of the expensive analysis intermediates.
//
// Every analysis of a LIS starts from the same handful of derived objects:
// the expansions G and d[G] with one evidence pass each (θ, critical cycle,
// rate safety, certificate), and — for queue sizing — the problematic-cycle
// enumeration (the dominant cost, via Johnson's algorithm). Historically
// each entry point re-derived them from scratch, so stacking analyses (ideal
// MST + practical MST + heuristic QS + exact QS) paid for the expansions and
// the cycle sweep up to four times. AnalysisCache computes each intermediate
// lazily, once, and hands the cached object to every subsequent stage.
//
// A cache is NOT thread-safe: the batch engine creates one per instance
// inside the worker that owns that instance, which is also what keeps batch
// results deterministic.
#pragma once

#include <cstdint>
#include <optional>

#include "core/diagnostics.hpp"
#include "core/qs_problem.hpp"
#include "core/rate_safety.hpp"
#include "engine/metrics.hpp"
#include "lis/lis_graph.hpp"
#include "mg/mcm.hpp"
#include "util/rational.hpp"

namespace lid::engine {

/// Lazily computed, memoized analysis intermediates of one netlist.
/// Holds a reference to the netlist, which must outlive the cache.
class AnalysisCache {
 public:
  /// One expansion and its cold mg::mcm_evidence pass (through the workspace).
  struct Solved {
    lis::Expansion expansion;
    mg::McmEvidence evidence;
  };

  /// `metrics`, when given, receives per-stage timings (expand_ideal,
  /// expand_doubled, mst_ideal, mst_practical, build_qs_problem) and
  /// cache-hit/miss counters; it must outlive the cache.
  explicit AnalysisCache(const lis::LisGraph& lis, Metrics* metrics = nullptr);

  [[nodiscard]] const lis::LisGraph& lis() const { return lis_; }

  /// The ideal expansion G (forward places only) and its evidence pass.
  const Solved& ideal();

  /// The doubled expansion d[G] (forward + backpressure places), likewise.
  const Solved& doubled();

  /// θ(G), from ideal()'s evidence.
  util::Rational theta_ideal();

  /// θ(d[G]), from doubled()'s evidence.
  util::Rational theta_practical();

  /// The queue-sizing problem (problematic cycles + TD instance), built with
  /// the cached MSTs. Memoized per options: a second call with the same
  /// options is a hit; differing options rebuild.
  const core::QsProblem& qs_problem(const core::QsBuildOptions& options = {});

  /// The degradation report (thetas + critical cycle of d[G]), exactly
  /// core::explain_degradation's result, from both evidence passes: repeated
  /// `analyze` verbs on a registered model skip the expansions and solves.
  core::DegradationReport degradation();

  /// The Sec. III-C rate-safety report, from G's evidence.
  core::RateSafetyReport rate_safety();

  /// Memoization traffic (for tests and the metrics report).
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

  /// The cache's Howard workspace. Both evidence passes leave their policies
  /// in it, so a stacked analysis (ideal + practical + lazy sizing)
  /// warm-starts wherever structure repeats. Safe because the cache — and
  /// therefore the workspace — is confined to the worker that owns it.
  [[nodiscard]] mg::Workspace& mcm_workspace() { return workspace_; }

 private:
  bool note(bool hit);  // updates counters; returns `hit`
  /// Fills `slot` once: `expand` the netlist, then its evidence pass.
  const Solved& solve(std::optional<Solved>& slot, lis::Expansion (*expand)(const lis::LisGraph&),
                      const char* expand_stage, const char* solve_stage);

  const lis::LisGraph& lis_;
  Metrics* metrics_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;

  std::optional<Solved> ideal_;
  std::optional<Solved> doubled_;
  std::optional<core::QsProblem> qs_;
  core::QsBuildOptions qs_options_;
  mg::Workspace workspace_;
};

}  // namespace lid::engine
