// Top-level queue-sizing driver (Sec. VII): build the TD instance, simplify,
// solve with the heuristic and/or the exact algorithm, and apply the result
// to the netlist. The returned report carries everything the paper's
// experiment tables need (solution sizes, CPU times, completion flags).
//
// DEPRECATED as a public entry point: new call sites should use
// lid::size_queues in src/lid_api.hpp (Result<T>-based, opaque handles).
// The batch engine reaches `size_queues_on_problem` directly to reuse a
// cached cycle enumeration; this header remains the implementation layer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/exact.hpp"
#include "core/heuristic.hpp"
#include "core/qs_problem.hpp"
#include "core/token_deficit.hpp"
#include "lis/lis_graph.hpp"
#include "mg/mcm.hpp"
#include "verify/certificate.hpp"

namespace lid::core {

/// Which solver(s) to run.
enum class QsMethod {
  kHeuristic,
  kExact,
  kBoth,
  /// Lazy critical-cycle constraint generation (src/core/lazy_sizing.hpp):
  /// exact-quality results without up-front cycle enumeration, falling back
  /// to the full kBoth pipeline when progress stalls.
  kLazy,
};

/// Diagnostics of a lazy (cutting-plane) solve.
struct LazyStats {
  /// Separation rounds run (Howard solve + constraint add + re-solve).
  std::int64_t iterations = 0;
  /// Critical-cycle constraints generated (== TD cycles in the final
  /// sub-instance when the solve converged).
  std::int64_t cycles_generated = 0;
  /// Warm-started Howard solves performed by this run's MCM workspace.
  std::int64_t howard_warm_restarts = 0;
  /// True when the lazy loop stalled (duplicate cycle, budget cut-off,
  /// unsizable cycle) and the bounded full-enumeration pipeline took over.
  bool fell_back = false;
};

/// Full configuration of a queue-sizing run.
struct QsOptions {
  QsMethod method = QsMethod::kHeuristic;
  QsBuildOptions build;
  /// Run the TD simplification pass before solving (paper Sec. VII-A).
  bool simplify = true;
  SimplifyOptions simplify_options;
  HeuristicOptions heuristic;
  ExactOptions exact;
  /// Re-verify the final MST on the sized netlist (one Howard solve; on by
  /// default). The facade turns it off for certified sizings, whose
  /// post-sizing witness proves the same MST.
  bool verify = true;
};

/// One solver's outcome.
struct SolverOutcome {
  /// Extra tokens per candidate channel (problem.channels order).
  std::vector<std::int64_t> weights;
  std::int64_t total_extra_tokens = 0;
  double cpu_ms = 0.0;
  /// Exact solver only: true when it proved optimality within its budget.
  bool finished = true;
  /// Exact solver only: true when the cancel token (not the node/time
  /// budget) ended the search.
  bool cancelled = false;
  /// Exact solver only: work charged against ExactOptions::max_nodes
  /// (summed over the lazy solver's sub-solves) — partial-progress evidence
  /// when the solve was cut off or cancelled.
  std::int64_t nodes_explored = 0;
};

/// Result of queue sizing.
struct QsReport {
  QsProblem problem;
  std::optional<SolverOutcome> heuristic;
  std::optional<SolverOutcome> exact;
  /// The sized netlist from the best available solution (exact when finished,
  /// else heuristic). Empty when the lazy driver was cancelled.
  lis::LisGraph sized;
  /// MST of `sized` (filled when options.verify).
  util::Rational achieved_mst;
  /// Present when the lazy solver ran (method kLazy), including when it fell
  /// back to full enumeration.
  std::optional<LazyStats> lazy;
  /// The lazy solver's generated constraints as a sizing certificate states
  /// them: each critical cycle's place ids in the *pristine* (unsized,
  /// uncollapsed) d[G], its queue channels in cycle order and its deficit
  /// against problem.theta_target. Filled only when the lazy solve ran
  /// without the SCC-collapse fast path — exactly the runs whose constraint
  /// set core::certify_sizing embeds. One entry per generated constraint, in
  /// generation order (matches problem.td.deficits).
  std::vector<verify::DeficitConstraint> lazy_constraints;
  /// The evidence pass on G that θ(G) was read from, when the solver ran one
  /// (size_queues_lazy does; engine::size_queues_cached copies in its
  /// cache's). core::certify_sizing's ideal witness reads it instead of
  /// solving G again.
  std::optional<mg::McmEvidence> ideal_evidence;
};

/// Runs the queue-sizing pipeline on `lis`. `theta_practical`, when given,
/// is θ(d[G]) of `lis` as the caller already solved it (the facade takes it
/// from its pre-flight's d[G]); otherwise it is solved here.
QsReport size_queues(const lis::LisGraph& lis, const QsOptions& options = {},
                     const std::optional<util::Rational>& theta_practical = std::nullopt);

/// Like size_queues, but starts from an already-built problem so batch
/// drivers (engine::AnalysisCache) can share one cycle enumeration between
/// stacked analyses. `problem` must have been built from `lis`;
/// options.build is ignored.
QsReport size_queues_on_problem(const lis::LisGraph& lis, const QsProblem& problem,
                                const QsOptions& options = {});

}  // namespace lid::core
