// Integer linear programming by LP-relaxation branch and bound, over the
// exact simplex of simplex.hpp. All variables are nonnegative integers.
// Built for the small covering programs of queue sizing (the Lu–Koh MILP
// baseline and the lazy sizer's per-round sub-solve), not for
// industrial-scale MILP.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "milp/simplex.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace lid::milp {

/// Options for the branch-and-bound search.
struct IlpOptions {
  /// Wall-clock budget; <= 0 means unlimited.
  double timeout_ms = 0.0;
  /// Cap on charged work (IlpResult::charged()); 0 means unlimited. Every
  /// branch-and-bound node costs one unit and every tableau cell a simplex
  /// pivot rewrites one more (LpResult::work), so the budget tracks the
  /// rational arithmetic: a pivot on an r-row, c-column tableau costs up to
  /// (r+1)(c+1), and each branching row makes the nodes below it dearer.
  /// The simplex checks the budget before every pivot, so the charged work
  /// never passes the cap and the cut-off point is a pure function of the
  /// program.
  std::int64_t max_nodes = 0;
  /// Cooperative cancellation, polled once per node (before its LP).
  util::CancelToken cancel;
  /// A feasible integral point known to the caller (empty = none). Seeds the
  /// incumbent, so the search only looks for strictly better points.
  /// Throws std::invalid_argument when it is infeasible or mis-sized. The
  /// search stops as soon as the incumbent meets the root LP bound (rounded
  /// up when the objective is integral).
  std::vector<std::int64_t> incumbent;
};

/// Outcome of an ILP solve.
struct IlpResult {
  enum class Status { kOptimal, kInfeasible, kUnbounded, kCutOff };
  Status status = Status::kInfeasible;
  util::Rational objective;
  /// Integral assignment (when kOptimal).
  std::vector<std::int64_t> solution;
  /// Branch-and-bound nodes explored.
  std::int64_t nodes = 0;
  /// Tableau cells rewritten by simplex pivots across all nodes.
  std::int64_t lp_work = 0;
  /// kCutOff because the cancel token fired (not the work or time budget).
  bool cancelled = false;
  double elapsed_ms = 0.0;

  /// The work charged against IlpOptions::max_nodes.
  [[nodiscard]] std::int64_t charged() const { return nodes + lp_work; }
};

/// Minimizes lp.objective over integral x >= 0 satisfying lp's constraints.
/// When every objective coefficient is an integer, so is every feasible
/// objective value, and nodes are pruned on the LP bound rounded up.
IlpResult solve_ilp(const LinearProgram& lp, const IlpOptions& options = {});

}  // namespace lid::milp
