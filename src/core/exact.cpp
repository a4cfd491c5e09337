#include "core/exact.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace lid::core {
namespace {

/// Decision-problem search: can `budget` unit tokens cover all residual
/// deficits? Canonical enumeration: always work on the lowest-index
/// unsatisfied cycle and place its tokens on covering sets in non-decreasing
/// order, so each multiset of placements is explored once.
class CoverSearch {
 public:
  CoverSearch(const TdInstance& instance, const ExactOptions& options, ExactResult& stats)
      : instance_(instance),
        covering_(instance.covering_sets()),
        options_(options),
        deadline_(options.timeout_ms),
        stats_(stats) {
    max_cover_ = 1;
    for (const auto& members : instance_.set_members) {
      max_cover_ = std::max(max_cover_, static_cast<std::int64_t>(members.size()));
    }
  }

  /// Returns the weight assignment when coverable within `budget`.
  std::optional<std::vector<std::int64_t>> run(std::int64_t budget) {
    residual_ = instance_.deficits;
    weights_.assign(instance_.num_sets(), 0);
    total_residual_ = std::accumulate(residual_.begin(), residual_.end(), std::int64_t{0});
    cut_off_ = false;
    if (search(budget)) return weights_;
    return std::nullopt;
  }

  [[nodiscard]] bool cut_off() const { return cut_off_; }

 private:
  bool search(std::int64_t budget) {
    // The node budget is checked at every node so the cut-off point is a
    // pure function of the instance (deterministic responses); the clock
    // and the cancel token are polled on a stride to keep the hot path
    // cheap — a cancelled solve stops within 1024 nodes of the request.
    ++stats_.nodes_explored;
    if (options_.max_nodes > 0 && stats_.nodes_explored >= options_.max_nodes) {
      cut_off_ = true;
      // The node cap and an outstanding cancel can trip on the same node;
      // poll the token here too, else a request that is both budgeted and
      // cancelled under-reports `cancelled`. The cut-off point is still
      // exactly max_nodes — the extra poll changes no control flow.
      if (options_.cancel.cancelled()) stats_.cancelled = true;
    } else if (stats_.nodes_explored % 1024 == 0) {
      if (options_.cancel.cancelled()) {
        cut_off_ = true;
        stats_.cancelled = true;
      } else if (deadline_.expired()) {
        cut_off_ = true;
      }
    }
    if (cut_off_) return false;

    // Find the lowest-index unsatisfied cycle and the pruning bounds.
    int target = -1;
    std::int64_t max_residual = 0;
    for (std::size_t c = 0; c < residual_.size(); ++c) {
      if (residual_[c] > 0) {
        if (target < 0) target = static_cast<int>(c);
        max_residual = std::max(max_residual, residual_[c]);
      }
    }
    if (target < 0) return true;  // all satisfied

    // Each token serves one cycle's residual at best, and at most max_cover_
    // cycles at once: two lower bounds on the tokens still required.
    if (max_residual > budget) return false;
    if ((total_residual_ + max_cover_ - 1) / max_cover_ > budget) return false;

    return place_for_cycle(static_cast<std::size_t>(target), 0, budget);
  }

  bool place_for_cycle(std::size_t cycle, std::size_t start, std::int64_t budget) {
    if (cut_off_) return false;
    if (residual_[cycle] <= 0) return search(budget);
    if (budget == 0) return false;
    const auto& sets = covering_[cycle];
    for (std::size_t i = start; i < sets.size(); ++i) {
      const auto s = static_cast<std::size_t>(sets[i]);
      apply(s, +1);
      if (place_for_cycle(cycle, i, budget - 1)) return true;
      apply(s, -1);
      if (cut_off_) return false;
    }
    return false;
  }

  void apply(std::size_t s, int delta) {
    weights_[s] += delta;
    for (const int c : instance_.set_members[s]) {
      const auto ci = static_cast<std::size_t>(c);
      const std::int64_t before = std::max<std::int64_t>(residual_[ci], 0);
      residual_[ci] -= delta;
      const std::int64_t after = std::max<std::int64_t>(residual_[ci], 0);
      total_residual_ += after - before;  // track the sum of positive residuals
    }
  }

  const TdInstance& instance_;
  const std::vector<std::vector<int>> covering_;
  const ExactOptions& options_;
  util::Deadline deadline_;
  ExactResult& stats_;

  std::vector<std::int64_t> residual_;
  std::vector<std::int64_t> weights_;
  std::int64_t total_residual_ = 0;
  std::int64_t max_cover_ = 1;
  bool cut_off_ = false;
};

}  // namespace

ExactResult solve_exact(const TdInstance& instance, const TdSolution& upper_bound,
                        const ExactOptions& options) {
  LID_ENSURE(instance.is_feasible(upper_bound.weights), "solve_exact: upper bound infeasible");
  util::Timer timer;
  ExactResult result;

  if (instance.num_cycles() == 0) {
    result.solution = TdSolution{std::vector<std::int64_t>(instance.num_sets(), 0), 0};
    result.elapsed_ms = timer.elapsed_ms();
    return result;
  }

  // Lower bound: the largest single deficit, and the counting bound.
  std::int64_t max_deficit = 0;
  std::int64_t total_deficit = 0;
  for (const std::int64_t d : instance.deficits) {
    max_deficit = std::max(max_deficit, d);
    total_deficit += d;
  }
  std::int64_t max_cover = 1;
  for (const auto& members : instance.set_members) {
    max_cover = std::max(max_cover, static_cast<std::int64_t>(members.size()));
  }
  std::int64_t lo = std::max(max_deficit, (total_deficit + max_cover - 1) / max_cover);
  std::int64_t hi = upper_bound.total;

  CoverSearch search(instance, options, result);
  TdSolution best = upper_bound;

  // Binary search the minimum feasible budget, as in the paper.
  bool proven = true;
  while (lo < hi) {
    if (options.cancel.cancelled()) {
      // Probe boundary: a token that fired between probes (or arrived
      // already expired) stops the search before more work starts.
      result.cancelled = true;
      proven = false;
      break;
    }
    const std::int64_t mid = lo + (hi - lo) / 2;
    const auto assignment = search.run(mid);
    if (search.cut_off()) {
      proven = false;
      break;
    }
    if (assignment) {
      best.weights = *assignment;
      best.total = std::accumulate(assignment->begin(), assignment->end(), std::int64_t{0});
      hi = best.total;  // feasible with best.total <= mid tokens
    } else {
      lo = mid + 1;
    }
  }

  result.elapsed_ms = timer.elapsed_ms();
  result.cut_off = !proven;
  if (proven) {
    LID_ASSERT(instance.is_feasible(best.weights), "exact solution infeasible");
    result.solution = best;
  }
  return result;
}

}  // namespace lid::core
