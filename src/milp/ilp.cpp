#include "milp/ilp.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lid::milp {
namespace {

using util::Rational;

/// Depth-first branch and bound with best-incumbent pruning.
class BranchAndBound {
 public:
  BranchAndBound(const LinearProgram& lp, const IlpOptions& options)
      : lp_(lp),
        options_(options),
        deadline_(options.timeout_ms),
        integral_objective_(std::all_of(lp.objective.begin(), lp.objective.end(),
                                        [](const Rational& c) { return c.den() == 1; })) {
    if (!options.incumbent.empty()) seed(options.incumbent);
  }

  IlpResult run() {
    util::Timer timer;
    explore(lp_, /*root=*/true);
    result_.elapsed_ms = timer.elapsed_ms();
    if (cut_off_) {
      result_.status = IlpResult::Status::kCutOff;
    } else if (unbounded_) {
      result_.status = IlpResult::Status::kUnbounded;
    } else if (incumbent_) {
      result_.status = IlpResult::Status::kOptimal;
      result_.objective = incumbent_objective_;
      result_.solution = *incumbent_;
    } else {
      result_.status = IlpResult::Status::kInfeasible;
    }
    return result_;
  }

 private:
  /// What a relaxation value `v` bounds the integral points below it by:
  /// with integer costs every integral objective is an integer, so ⌈v⌉.
  [[nodiscard]] Rational bound_of(const Rational& v) const {
    return integral_objective_ ? Rational(v.ceil()) : v;
  }

  /// True once the incumbent meets the root's bound: nothing better exists,
  /// so the open branches need not be explored.
  [[nodiscard]] bool proven() const {
    return incumbent_ && root_bound_ && incumbent_objective_ <= *root_bound_;
  }

  void seed(const std::vector<std::int64_t>& point) {
    LID_ENSURE(point.size() == lp_.num_variables(),
               "solve_ilp: incumbent size != variable count");
    Rational objective(0);
    for (std::size_t j = 0; j < point.size(); ++j) {
      LID_ENSURE(point[j] >= 0, "solve_ilp: incumbent is negative");
      objective += lp_.objective[j] * Rational(point[j]);
    }
    for (const Constraint& con : lp_.constraints) {
      LID_ENSURE(con.coeffs.size() == point.size(),
                 "solve_ilp: constraint width != variable count");
      Rational lhs(0);
      for (std::size_t j = 0; j < point.size(); ++j) {
        if (point[j] != 0 && con.coeffs[j].num() != 0) lhs += con.coeffs[j] * Rational(point[j]);
      }
      const bool holds = (con.relation == Relation::kLessEq && lhs <= con.rhs) ||
                         (con.relation == Relation::kGreaterEq && lhs >= con.rhs) ||
                         (con.relation == Relation::kEqual && lhs == con.rhs);
      LID_ENSURE(holds, "solve_ilp: incumbent is infeasible");
    }
    incumbent_ = point;
    incumbent_objective_ = objective;
  }

  void explore(const LinearProgram& node, bool root) {
    if (cut_off_ || unbounded_ || proven()) return;
    ++result_.nodes;
    if (options_.cancel.cancelled()) {
      cut_off_ = true;
      result_.cancelled = true;
      return;
    }
    if (deadline_.expired() ||
        (options_.max_nodes > 0 && result_.charged() >= options_.max_nodes)) {
      cut_off_ = true;
      return;
    }
    // The relaxation gets what is left of the budget, so the charged work
    // never passes max_nodes.
    const std::int64_t lp_budget =
        options_.max_nodes > 0 ? options_.max_nodes - result_.charged() : 0;
    const LpResult relaxation = solve_lp(node, lp_budget);
    result_.lp_work += relaxation.work;
    if (relaxation.status == LpResult::Status::kCutOff) {
      cut_off_ = true;
      return;
    }
    if (relaxation.status == LpResult::Status::kInfeasible) return;
    if (relaxation.status == LpResult::Status::kUnbounded) {
      // The integral problem is unbounded too when the relaxation is (for
      // rational-coefficient covering programs this implies integral rays).
      unbounded_ = true;
      return;
    }
    // Bound: the relaxation value can only go up along this branch, and the
    // root's value bounds every integral point.
    const Rational bound = bound_of(relaxation.objective);
    if (root) root_bound_ = bound;
    if (incumbent_ && bound >= incumbent_objective_) return;

    // Find a fractional variable; if none, we have an integral solution.
    std::size_t fractional = node.num_variables();
    for (std::size_t j = 0; j < relaxation.solution.size(); ++j) {
      if (relaxation.solution[j].den() != 1) {
        fractional = j;
        break;
      }
    }
    if (fractional == node.num_variables()) {
      std::vector<std::int64_t> integral;
      integral.reserve(relaxation.solution.size());
      for (const Rational& v : relaxation.solution) integral.push_back(v.num());
      if (!incumbent_ || relaxation.objective < incumbent_objective_) {
        incumbent_ = std::move(integral);
        incumbent_objective_ = relaxation.objective;
      }
      return;
    }

    const Rational value = relaxation.solution[fractional];
    // Branch down: x_j <= floor(value).
    {
      LinearProgram down = node;
      std::vector<Rational> coeffs(node.num_variables(), Rational(0));
      coeffs[fractional] = Rational(1);
      down.add_constraint(std::move(coeffs), Relation::kLessEq, Rational(value.floor()));
      explore(down, /*root=*/false);
    }
    // Branch up: x_j >= ceil(value).
    {
      LinearProgram up = node;
      std::vector<Rational> coeffs(node.num_variables(), Rational(0));
      coeffs[fractional] = Rational(1);
      up.add_constraint(std::move(coeffs), Relation::kGreaterEq, Rational(value.ceil()));
      explore(up, /*root=*/false);
    }
  }

  const LinearProgram& lp_;
  const IlpOptions& options_;
  util::Deadline deadline_;
  const bool integral_objective_;

  IlpResult result_;
  std::optional<std::vector<std::int64_t>> incumbent_;
  Rational incumbent_objective_;
  std::optional<Rational> root_bound_;
  bool cut_off_ = false;
  bool unbounded_ = false;
};

}  // namespace

IlpResult solve_ilp(const LinearProgram& lp, const IlpOptions& options) {
  BranchAndBound search(lp, options);
  return search.run();
}

}  // namespace lid::milp
