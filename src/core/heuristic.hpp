// The paper's queue-sizing heuristic (Sec. VII-B).
//
// Start from the trivially feasible assignment where each set's weight equals
// the maximal deficit among its cycles; then repeatedly sweep the unfixed
// sets, decrementing a weight whenever the assignment stays feasible and
// fixing it at the first failed decrement. Complexity O(|S|^2 |V| |C|).
#pragma once

#include "core/token_deficit.hpp"

namespace lid::core {

/// Knobs for heuristic variants (the defaults are the paper's algorithm; the
/// ablation bench explores alternatives).
struct HeuristicOptions {
  /// Sweep sets in descending initial-weight order instead of index order.
  bool order_by_weight = false;
  /// Decrement by the largest feasible step per visit instead of by one
  /// (same result, fewer feasibility checks).
  bool greedy_steps = false;
};

/// Runs the heuristic on a TD instance; the result is always feasible.
TdSolution solve_heuristic(const TdInstance& instance, const HeuristicOptions& options = {});

/// An alternative heuristic: solve the LP relaxation of the covering program
/// exactly (rational simplex) and round every weight up. Always feasible
/// (ceiling a fractional cover keeps every constraint satisfied) and at most
/// one extra token per set above the LP bound — often tighter than the
/// paper's heuristic on instances with heavily shared sets, at the cost of a
/// simplex solve.
TdSolution solve_lp_rounding(const TdInstance& instance);

}  // namespace lid::core
