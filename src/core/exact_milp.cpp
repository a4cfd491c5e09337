#include "core/exact_milp.hpp"

#include <numeric>

#include "milp/ilp.hpp"
#include "util/check.hpp"

namespace lid::core {

ExactResult solve_exact_milp(const TdInstance& instance, const TdSolution& upper_bound,
                             const ExactOptions& options) {
  LID_ENSURE(instance.is_feasible(upper_bound.weights),
             "solve_exact_milp: upper bound infeasible");
  ExactResult result;
  util::Timer timer;

  const std::size_t n_sets = instance.num_sets();
  if (instance.num_cycles() == 0) {
    result.solution = TdSolution{std::vector<std::int64_t>(n_sets, 0), 0};
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  milp::LinearProgram lp;
  lp.objective.assign(n_sets, util::Rational(1));
  const auto covering = instance.covering_sets();
  for (std::size_t c = 0; c < instance.num_cycles(); ++c) {
    std::vector<util::Rational> coeffs(n_sets, util::Rational(0));
    for (const int s : covering[c]) coeffs[static_cast<std::size_t>(s)] = util::Rational(1);
    lp.add_constraint(std::move(coeffs), milp::Relation::kGreaterEq,
                      util::Rational(instance.deficits[c]));
  }

  // The caller's feasible point seeds the incumbent, so an upper bound that
  // meets the rounded root LP bound ends the search at the root.
  milp::IlpOptions ilp_options;
  ilp_options.timeout_ms = options.timeout_ms;
  ilp_options.max_nodes = options.max_nodes;
  ilp_options.cancel = options.cancel;
  ilp_options.incumbent = upper_bound.weights;
  const milp::IlpResult ilp = milp::solve_ilp(lp, ilp_options);
  result.nodes_explored = ilp.charged();
  result.elapsed_ms = timer.elapsed_ms();

  switch (ilp.status) {
    case milp::IlpResult::Status::kOptimal: {
      TdSolution solution;
      solution.weights = ilp.solution;
      solution.total =
          std::accumulate(ilp.solution.begin(), ilp.solution.end(), std::int64_t{0});
      LID_ASSERT(instance.is_feasible(solution.weights), "MILP solution infeasible");
      LID_ASSERT(solution.total <= upper_bound.total, "MILP worse than the upper bound");
      result.solution = std::move(solution);
      return result;
    }
    case milp::IlpResult::Status::kCutOff:
      result.cut_off = true;
      result.cancelled = ilp.cancelled;
      return result;
    case milp::IlpResult::Status::kInfeasible:
    case milp::IlpResult::Status::kUnbounded:
      // A TD covering program is always feasible (take the upper bound) and
      // bounded below by zero: reaching here is a solver bug.
      throw std::logic_error("solve_exact_milp: covering program reported infeasible/unbounded");
  }
  return result;
}

}  // namespace lid::core
