#include "core/lazy_sizing.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/exact_milp.hpp"
#include "core/heuristic.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace lid::core {
namespace {

using lis::ChannelId;
using lis::LisGraph;
using util::Rational;

/// Safety cap on separation rounds. The loop provably terminates (every
/// added constraint is violated by the current weights, so cycles never
/// repeat), but a cap bounds the damage of any future regression; hitting it
/// triggers the full-enumeration fallback, never a wrong answer.
constexpr std::int64_t kMaxLazyIterations = 512;

/// The full eager pipeline, used when the lazy loop cannot make progress.
QsReport run_fallback(const LisGraph& lis, const Rational& theta_ideal,
                      const Rational& theta_practical, const QsOptions& options,
                      LazyStats stats) {
  stats.fell_back = true;
  QsOptions full = options;
  full.method = QsMethod::kBoth;
  QsReport report = size_queues_on_problem(
      lis, build_qs_problem_with_mst(lis, theta_ideal, theta_practical, full.build), full);
  report.lazy = stats;
  return report;
}

}  // namespace

QsReport size_queues_lazy(const LisGraph& lis, const QsOptions& options, mg::Workspace* workspace,
                          const std::optional<Rational>& theta_practical) {
  mg::McmEvidence ideal = mg::mcm_evidence(lis::expand_ideal(lis).graph);
  QsReport report = size_queues_lazy_with_mst(
      lis, mg::mst(ideal), theta_practical ? *theta_practical : lis::practical_mst(lis), options,
      workspace);
  report.ideal_evidence = std::move(ideal);
  return report;
}

QsReport size_queues_lazy_with_mst(const LisGraph& lis, const Rational& theta_ideal,
                                   const Rational& theta_practical, const QsOptions& options,
                                   mg::Workspace* workspace) {
  util::Timer timer;
  QsReport report;
  report.problem.theta_ideal = theta_ideal;
  report.problem.theta_practical = theta_practical;
  report.problem.theta_target = (options.build.target_mst > Rational(0))
                                    ? Rational::min(options.build.target_mst, theta_ideal)
                                    : theta_ideal;
  report.lazy = LazyStats{};

  if (!report.problem.has_degradation()) {
    report.sized = lis;
    report.achieved_mst = theta_practical;
    report.exact = SolverOutcome{{}, 0, 0.0, true};
    return report;
  }

  // Size the same graph the eager builder would (SCC collapse included), so
  // deficits — and therefore optimal totals — agree exactly.
  LazyStats& stats = *report.lazy;
  const QsBuildTarget build_target = select_build_target(lis, options.build);
  report.problem.scc_collapsed = build_target.collapsed_used;
  const LisGraph& target = build_target.graph(lis);

  const lis::Expansion expansion = lis::expand_doubled(target);
  mg::MarkedGraph work = expansion.graph;  // mutable marking; structure fixed

  const Rational theta = report.problem.theta_target;
  mg::Workspace local_workspace;
  mg::Workspace& mcm = workspace != nullptr ? *workspace : local_workspace;
  const std::int64_t warm_before = mcm.stats().warm_restarts;

  TdInstance& td = report.problem.td;
  std::map<ChannelId, int> set_of_channel;  // first-sighting stable indices
  std::vector<ChannelId> target_channels;
  std::vector<std::int64_t> weights;   // current optimal weights, one per set
  std::int64_t proven_total = 0;       // optimum of the current sub-instance
  std::int64_t nodes_explored = 0;
  std::set<std::vector<mg::PlaceId>> seen_cycles;  // sorted place signatures
  std::vector<ChannelId> cycle_channels;
  mg::MeanCycle critical;  // buffer reused across iterations

  bool converged = false;
  while (stats.iterations < kMaxLazyIterations) {
    if (options.build.cancel.cancelled()) {
      report.problem.cancelled = true;
      report.lazy->howard_warm_restarts = mcm.stats().warm_restarts - warm_before;
      return report;
    }
    ++stats.iterations;

    // Separation oracle: does the current marking already sustain the
    // target? Howard hands back the critical cycle for free if not.
    const bool cyclic = mg::min_cycle_mean_howard(work, mcm, critical);
    if (!cyclic || Rational::min(Rational(1), critical.mean) >= theta) {
      converged = true;
      break;
    }

    // The new constraint uses the PRISTINE marking (like the eager builder):
    // the critical cycle needs `deficit` extra tokens on its queue backedges
    // to reach the target mean.
    std::int64_t pristine_tokens = 0;
    for (const mg::PlaceId p : critical.cycle) pristine_tokens += expansion.graph.tokens(p);
    const std::int64_t deficit = cycle_deficit(
        pristine_tokens, static_cast<std::int64_t>(critical.cycle.size()), theta);
    cycle_channels.clear();
    for (const mg::PlaceId p : critical.cycle) {
      if (expansion.is_queue_place(p)) {
        cycle_channels.push_back(expansion.place_channel[static_cast<std::size_t>(p)]);
      }
    }
    std::sort(cycle_channels.begin(), cycle_channels.end());
    cycle_channels.erase(std::unique(cycle_channels.begin(), cycle_channels.end()),
                         cycle_channels.end());

    std::vector<mg::PlaceId> signature = critical.cycle;
    std::sort(signature.begin(), signature.end());
    // Each of these means the loop cannot make progress here: a degrading
    // cycle with no sizable queue, a zero deficit against the pristine
    // marking, or a cycle we already constrained. All are impossible while
    // the invariants hold, so they route to the always-correct fallback.
    if (cycle_channels.empty() || deficit <= 0 ||
        !seen_cycles.insert(std::move(signature)).second) {
      return run_fallback(lis, theta_ideal, theta_practical, options, stats);
    }

    // Grow the instance: one new cycle, sets keyed by channel with
    // first-sighting indices (so previous weights stay aligned).
    const int cycle_index = static_cast<int>(td.deficits.size());
    td.deficits.push_back(deficit);
    for (const ChannelId ch : cycle_channels) {
      const auto [it, inserted] =
          set_of_channel.emplace(ch, static_cast<int>(target_channels.size()));
      if (inserted) {
        target_channels.push_back(ch);
        td.set_members.emplace_back();
      }
      td.set_members[static_cast<std::size_t>(it->second)].push_back(cycle_index);
    }
    ++stats.cycles_generated;
    // Without the SCC collapse, `target` IS `lis`, so the cycle's place ids
    // are valid in the pristine d[G]: record the constraint as the sizing
    // certificate states it (queue channels in cycle order).
    if (!build_target.collapsed_used) {
      verify::DeficitConstraint dc;
      dc.deficit = deficit;
      dc.cycle.reserve(critical.cycle.size());
      for (const mg::PlaceId p : critical.cycle) {
        dc.cycle.push_back(static_cast<std::int64_t>(p));
        if (expansion.is_queue_place(p)) {
          dc.channels.push_back(expansion.place_channel[static_cast<std::size_t>(p)]);
        }
      }
      report.lazy_constraints.push_back(std::move(dc));
    }

    // Re-solve on the paper's simplified sub-instance: the reductions commit
    // the forced tokens, and the heuristic seeds the LP branch and bound's
    // incumbent on what is left.
    const SimplifiedTd simplified = simplify(td, options.simplify_options);
    const ExactResult solved = solve_exact_milp(
        simplified.reduced, solve_heuristic(simplified.reduced, options.heuristic), options.exact);
    nodes_explored += solved.nodes_explored;
    if (solved.cancelled) {
      report.problem.cancelled = true;
      report.lazy->howard_warm_restarts = mcm.stats().warm_restarts - warm_before;
      return report;
    }
    if (!solved.solution) {
      // Node/time budget cut the sub-solve off — deterministic for node
      // budgets, so the fallback (and thus the response) stays a pure
      // function of the request.
      return run_fallback(lis, theta_ideal, theta_practical, options, stats);
    }
    TdSolution full = simplified.lift(*solved.solution);
    LID_ASSERT(td.is_feasible(full.weights), "lazy sub-solve infeasible on the sub-instance");
    weights = std::move(full.weights);
    proven_total = full.total;

    // Re-marking: every sized queue gets pristine tokens + its weight.
    for (std::size_t s = 0; s < weights.size(); ++s) {
      const mg::PlaceId qp = expansion.queue_place(target_channels[s]);
      work.set_tokens(qp, expansion.graph.tokens(qp) + weights[s]);
    }
  }
  if (!converged) {
    return run_fallback(lis, theta_ideal, theta_practical, options, stats);
  }

  report.problem.problem_cycles = td.num_cycles();
  report.problem.channels.reserve(target_channels.size());
  for (const ChannelId ch : target_channels) {
    report.problem.channels.push_back(build_target.origin(ch));
  }
  report.lazy->howard_warm_restarts = mcm.stats().warm_restarts - warm_before;

  SolverOutcome outcome;
  outcome.weights = std::move(weights);
  outcome.total_extra_tokens = proven_total;
  outcome.finished = true;
  outcome.nodes_explored = nodes_explored;
  outcome.cpu_ms = timer.elapsed_ms();
  report.exact = std::move(outcome);

  report.sized = apply_solution(lis, report.problem, report.exact->weights);
  if (options.verify) {
    report.achieved_mst = lis::practical_mst(report.sized);
  }
  return report;
}

}  // namespace lid::core
