#include "core/heuristic.hpp"

#include <algorithm>
#include <numeric>

#include "milp/simplex.hpp"
#include "util/check.hpp"

namespace lid::core {

TdSolution solve_heuristic(const TdInstance& instance, const HeuristicOptions& options) {
  const std::size_t n_sets = instance.num_sets();
  const std::size_t n_cycles = instance.num_cycles();

  TdSolution solution;
  solution.weights.assign(n_sets, 0);

  // Initial assignment: each set carries the maximal deficit of its cycles.
  // This is feasible by construction (every cycle has at least one set).
  for (std::size_t s = 0; s < n_sets; ++s) {
    std::int64_t w = 0;
    for (const int c : instance.set_members[s]) {
      w = std::max(w, instance.deficits[static_cast<std::size_t>(c)]);
    }
    solution.weights[s] = w;
  }

  // covered[c] = current total weight over c's covering sets.
  std::vector<std::int64_t> covered(n_cycles, 0);
  for (std::size_t s = 0; s < n_sets; ++s) {
    for (const int c : instance.set_members[s]) {
      covered[static_cast<std::size_t>(c)] += solution.weights[s];
    }
  }

  std::vector<std::size_t> order(n_sets);
  std::iota(order.begin(), order.end(), 0);
  if (options.order_by_weight) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return solution.weights[a] > solution.weights[b];
    });
  }

  // Largest decrement of set s that keeps every member cycle covered.
  const auto max_decrement = [&](std::size_t s) {
    std::int64_t room = solution.weights[s];
    for (const int c : instance.set_members[s]) {
      const auto ci = static_cast<std::size_t>(c);
      room = std::min(room, covered[ci] - instance.deficits[ci]);
      if (room <= 0) return std::int64_t{0};
    }
    return room;
  };

  std::vector<char> fixed(n_sets, 0);
  std::size_t unfixed = n_sets;
  while (unfixed > 0) {
    for (const std::size_t s : order) {
      if (fixed[s]) continue;
      const std::int64_t room = max_decrement(s);
      const std::int64_t step = options.greedy_steps ? room : std::min<std::int64_t>(room, 1);
      if (step > 0) {
        solution.weights[s] -= step;
        for (const int c : instance.set_members[s]) {
          covered[static_cast<std::size_t>(c)] -= step;
        }
      }
      // Fix when no further decrement is possible right now. In the paper's
      // one-step variant a successful decrement leaves the set unfixed for
      // the next sweep; with greedy steps the set is exhausted immediately.
      const bool exhausted = options.greedy_steps ? true : (step == 0);
      if (exhausted || solution.weights[s] == 0) {
        if (!fixed[s]) {
          fixed[s] = 1;
          --unfixed;
        }
      }
    }
  }

  solution.total = std::accumulate(solution.weights.begin(), solution.weights.end(),
                                   std::int64_t{0});
  LID_ASSERT(instance.is_feasible(solution.weights), "heuristic produced an infeasible solution");
  return solution;
}

TdSolution solve_lp_rounding(const TdInstance& instance) {
  TdSolution solution;
  solution.weights.assign(instance.num_sets(), 0);
  if (instance.num_cycles() == 0) return solution;

  milp::LinearProgram lp;
  lp.objective.assign(instance.num_sets(), util::Rational(1));
  const auto covering = instance.covering_sets();
  for (std::size_t c = 0; c < instance.num_cycles(); ++c) {
    LID_ENSURE(!covering[c].empty(), "solve_lp_rounding: uncoverable cycle");
    std::vector<util::Rational> coeffs(instance.num_sets(), util::Rational(0));
    for (const int s : covering[c]) coeffs[static_cast<std::size_t>(s)] = util::Rational(1);
    lp.add_constraint(std::move(coeffs), milp::Relation::kGreaterEq,
                      util::Rational(instance.deficits[c]));
  }
  const milp::LpResult relaxed = milp::solve_lp(lp);
  LID_ASSERT(relaxed.status == milp::LpResult::Status::kOptimal,
             "covering LP must be feasible and bounded");
  for (std::size_t s = 0; s < instance.num_sets(); ++s) {
    solution.weights[s] = relaxed.solution[s].ceil();
    solution.total += solution.weights[s];
  }
  LID_ASSERT(instance.is_feasible(solution.weights),
             "LP rounding produced an infeasible solution");
  return solution;
}

}  // namespace lid::core
