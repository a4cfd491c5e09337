// Queue sizing as a mixed-integer linear program — the Lu–Koh baseline
// ([35], [36]) the paper explicitly forgoes ("we forgo the popular MILP
// approach to these hard problems", Sec. II). The Token-Deficit instance is
// a covering program:
//
//     minimize   Σ_s w_s
//     subject to Σ_{s ∋ c} w_s >= deficit(c)   for every cycle c,
//                w integral, w >= 0,
//
// solved with the exact-rational branch-and-bound ILP of src/milp. It makes
// the paper's methodological comparison concrete and agrees with the
// combinatorial exact solvers everywhere. It is also the lazy sizer's
// per-round sub-solve (lazy_sizing.hpp): on its few dozen cycles with
// deficits in the hundreds, the LP bound proves optimality where the unit-
// token search of exact.hpp would need a tree as deep as the optimum.
#pragma once

#include "core/exact.hpp"
#include "core/token_deficit.hpp"

namespace lid::core {

/// Solves the TD instance via the MILP formulation. Same contract as
/// solve_exact(), except that `upper_bound` seeds the incumbent (the search
/// stops once it meets the rounded root LP bound) and `nodes_explored`
/// counts branch-and-bound nodes plus the tableau cells simplex pivots
/// rewrite — the work `options.max_nodes` budgets (see ExactOptions).
ExactResult solve_exact_milp(const TdInstance& instance, const TdSolution& upper_bound,
                             const ExactOptions& options = {});

}  // namespace lid::core
