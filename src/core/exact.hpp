// Exact Token-Deficit solver (Sec. VII-B).
//
// The paper's exact algorithm binary-searches the budget K between 1 and the
// heuristic solution; each probe answers the decision problem "can K extra
// tokens cover every deficit?" with a depth-K search tree over unit token
// placements. This implementation keeps that structure and adds standard
// branch-and-bound ingredients (most-constrained-cycle branching, a
// max-residual-deficit pruning bound) plus a wall-clock timeout, mirroring
// the 1-hour cutoff used for Table IV / Table V.
#pragma once

#include <cstdint>
#include <optional>

#include "core/token_deficit.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace lid::core {

/// Options for the exact search.
struct ExactOptions {
  /// Wall-clock budget; <= 0 means unlimited.
  double timeout_ms = 0.0;
  /// Hard cap on search work; 0 means unlimited. solve_exact charges one
  /// unit per search node and checks at every node, so its cut-off lands on
  /// exactly max_nodes. solve_exact_milp (exact_milp.hpp, the lazy sizer's
  /// sub-solve) charges one unit per branch-and-bound node plus one per
  /// tableau cell a simplex pivot rewrites — an LP node does far more
  /// arithmetic than a unit-token node, and more the deeper it sits — and
  /// checks before every pivot, so its charged work never passes max_nodes.
  /// Either way the cut-off point is a pure function of the instance, never
  /// of machine speed.
  std::int64_t max_nodes = 0;
  /// Cooperative cancellation (request deadline, server drain). Polled at
  /// iteration boundaries (solve_exact) or at every node (solve_exact_milp);
  /// the default token never cancels.
  util::CancelToken cancel;
};

/// Outcome of an exact solve.
struct ExactResult {
  /// The optimal solution, present unless the search was cut off before it
  /// could be proven optimal.
  std::optional<TdSolution> solution;
  /// True when the timeout, node cap or cancel token fired.
  bool cut_off = false;
  /// True when specifically the cancel token fired (deadline expiry or an
  /// external cancel) — lets callers distinguish "out of budget" from
  /// "caller gave up" and report partial progress.
  bool cancelled = false;
  /// Work charged against max_nodes: search nodes across all probes
  /// (solve_exact), or nodes plus tableau cells rewritten by simplex pivots
  /// (solve_exact_milp).
  std::int64_t nodes_explored = 0;
  /// Wall time spent.
  double elapsed_ms = 0.0;
};

/// Finds a minimum-total solution. `upper_bound` must be a feasible solution
/// (typically the heuristic's); the search never returns a worse one — on
/// cut-off, `solution` is absent but the caller still holds `upper_bound`.
ExactResult solve_exact(const TdInstance& instance, const TdSolution& upper_bound,
                        const ExactOptions& options = {});

}  // namespace lid::core
