#include "core/queue_sizing.hpp"

#include <numeric>

#include "core/lazy_sizing.hpp"
#include "util/timer.hpp"

namespace lid::core {
namespace {

std::int64_t total_of(const std::vector<std::int64_t>& weights) {
  return std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
}

}  // namespace

QsReport size_queues(const lis::LisGraph& lis, const QsOptions& options,
                     const std::optional<util::Rational>& theta_practical) {
  if (options.method == QsMethod::kLazy) {
    return size_queues_lazy(lis, options, nullptr, theta_practical);
  }
  return size_queues_on_problem(
      lis,
      build_qs_problem_with_mst(lis, lis::ideal_mst(lis),
                                theta_practical ? *theta_practical : lis::practical_mst(lis),
                                options.build),
      options);
}

QsReport size_queues_on_problem(const lis::LisGraph& lis, const QsProblem& problem,
                                const QsOptions& options) {
  QsReport report;
  report.problem = problem;
  report.sized = lis;

  if (!report.problem.has_degradation()) {
    report.achieved_mst = report.problem.theta_practical;
    if (options.method != QsMethod::kExact) {
      report.heuristic = SolverOutcome{{}, 0, 0.0, true};
      report.heuristic->weights.assign(report.problem.channels.size(), 0);
    }
    if (options.method != QsMethod::kHeuristic) {
      report.exact = SolverOutcome{{}, 0, 0.0, true};
      report.exact->weights.assign(report.problem.channels.size(), 0);
    }
    return report;
  }

  // Optional simplification, shared by both solvers.
  const TdInstance* instance = &report.problem.td;
  std::optional<SimplifiedTd> simplified;
  double simplify_ms = 0.0;
  if (options.simplify) {
    util::Timer timer;
    simplified = simplify(report.problem.td, options.simplify_options);
    simplify_ms = timer.elapsed_ms();
    instance = &simplified->reduced;
  }
  const auto lift = [&](const TdSolution& s) {
    return simplified ? simplified->lift(s) : s;
  };

  std::optional<TdSolution> heuristic_reduced;
  if (options.method != QsMethod::kExact) {
    util::Timer timer;
    heuristic_reduced = solve_heuristic(*instance, options.heuristic);
    const TdSolution heuristic_full = lift(*heuristic_reduced);
    SolverOutcome outcome;
    outcome.weights = heuristic_full.weights;
    outcome.total_extra_tokens = heuristic_full.total;
    outcome.cpu_ms = timer.elapsed_ms() + simplify_ms;
    report.heuristic = std::move(outcome);
  }

  if (options.method != QsMethod::kHeuristic) {
    util::Timer timer;
    // The exact search needs a feasible upper bound; reuse the heuristic's
    // reduced solution when it already ran, otherwise compute one silently.
    const TdSolution upper =
        heuristic_reduced ? *heuristic_reduced : solve_heuristic(*instance, options.heuristic);
    const ExactResult exact = solve_exact(*instance, upper, options.exact);
    SolverOutcome outcome;
    outcome.finished = !exact.cut_off;
    outcome.cancelled = exact.cancelled;
    outcome.nodes_explored = exact.nodes_explored;
    if (exact.solution) {
      const TdSolution full = lift(*exact.solution);
      outcome.weights = full.weights;
      outcome.total_extra_tokens = full.total;
    } else {
      // Cut off: fall back to the upper bound so the report stays feasible.
      const TdSolution full = lift(upper);
      outcome.weights = full.weights;
      outcome.total_extra_tokens = full.total;
    }
    outcome.cpu_ms = timer.elapsed_ms() + simplify_ms;
    report.exact = std::move(outcome);
  }

  const SolverOutcome* best = nullptr;
  if (report.exact && report.exact->finished) {
    best = &*report.exact;
  } else if (report.heuristic) {
    best = &*report.heuristic;
  } else if (report.exact) {
    best = &*report.exact;
  }
  LID_ASSERT(best != nullptr, "size_queues: no solver ran");
  LID_ASSERT(total_of(best->weights) == best->total_extra_tokens,
             "size_queues: inconsistent solution total");

  report.sized = apply_solution(lis, report.problem, best->weights);
  // An optimum over a truncated enumeration covers only the cycles found:
  // it is applied as it is, but not reported proven.
  if (report.exact && report.problem.truncated) report.exact->finished = false;
  if (options.verify) {
    report.achieved_mst = lis::practical_mst(report.sized);
  }
  return report;
}

}  // namespace lid::core
