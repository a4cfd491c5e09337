// An exact-rational linear-programming solver (two-phase primal simplex).
//
// Prior work solved queue sizing with mixed integer linear programming
// (Lu & Koh [35], [36]; Prakash & Martin [44] for slack matching). To compare
// the paper's combinatorial approach against that baseline faithfully, this
// module implements LP from scratch over util::Rational — no floating-point
// tolerance games — with Bland's rule for guaranteed termination. Problem
// sizes in this domain are tiny (tens of variables, hundreds of
// constraints), so a dense tableau is the right tool.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rational.hpp"

namespace lid::milp {

/// Constraint sense.
enum class Relation {
  kLessEq,
  kGreaterEq,
  kEqual,
};

/// One linear constraint: coeffs · x  (rel)  rhs.
struct Constraint {
  std::vector<util::Rational> coeffs;
  Relation relation = Relation::kGreaterEq;
  util::Rational rhs;
};

/// min objective · x  subject to constraints and x >= 0.
struct LinearProgram {
  std::vector<util::Rational> objective;
  std::vector<Constraint> constraints;

  [[nodiscard]] std::size_t num_variables() const { return objective.size(); }

  /// Convenience builder for a constraint.
  void add_constraint(std::vector<util::Rational> coeffs, Relation relation,
                      util::Rational rhs);
};

/// Outcome of an LP solve.
struct LpResult {
  /// kCutOff: the work budget ran out before the solve ended.
  enum class Status { kOptimal, kInfeasible, kUnbounded, kCutOff };
  Status status = Status::kInfeasible;
  /// Optimal objective value (when kOptimal).
  util::Rational objective;
  /// Optimal assignment, one value per variable (when kOptimal).
  std::vector<util::Rational> solution;
  /// Tableau cells rewritten by pivots across both phases. A pivot rewrites
  /// every column of the pivot row and of each row with a nonzero entry in
  /// the pivot column, so this counts the solve's rational arithmetic — a
  /// machine-independent measure of its cost.
  std::int64_t work = 0;
};

/// Solves the LP exactly. `max_work` > 0 caps `work`: a pivot that would
/// take it past the cap is not made, and the result is kCutOff; 0 means
/// unlimited. Throws std::invalid_argument on malformed input (constraint
/// width != variable count).
LpResult solve_lp(const LinearProgram& lp, std::int64_t max_work = 0);

}  // namespace lid::milp
