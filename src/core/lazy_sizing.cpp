#include "core/lazy_sizing.hpp"

#include <algorithm>
#include <map>
#include <string>
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
/// repeat), but a cap bounds the damage of any future regression: reaching
/// it fails the call, never returns a sizing that misses its target.
constexpr std::int64_t kMaxLazyIterations = 512;

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
  std::vector<std::int64_t> weights;  // current weights, one per set
  std::int64_t total = 0;             // their sum
  bool proven = true;                 // the last sub-solve proved its optimum
  std::int64_t nodes_explored = 0;
  std::vector<ChannelId> cycle_channels;
  mg::MeanCycle critical;  // buffer reused across iterations

  for (;;) {
    if (options.build.cancel.cancelled()) {
      report.problem.cancelled = true;
      break;
    }
    ++stats.iterations;

    // Separation oracle: does the current marking already sustain the
    // target? Howard hands back the critical cycle for free if not.
    const bool cyclic = mg::min_cycle_mean_howard(work, mcm, critical);
    if (!cyclic || Rational::min(Rational(1), critical.mean) >= theta) break;
    LID_ENSURE(stats.iterations < kMaxLazyIterations,
               "size_queues: lazy sizing did not reach its target within " +
                   std::to_string(kMaxLazyIterations) + " separation rounds");

    // The new constraint uses the PRISTINE marking (like the eager builder):
    // the critical cycle needs `deficit` extra tokens on its queue backedges
    // to reach the target mean. `covered` is what the current weights put on
    // them, so the constraint reads covered >= deficit at those weights.
    std::int64_t pristine_tokens = 0;
    std::int64_t covered = 0;
    cycle_channels.clear();
    for (const mg::PlaceId p : critical.cycle) {
      pristine_tokens += expansion.graph.tokens(p);
      covered += work.tokens(p) - expansion.graph.tokens(p);
      if (expansion.is_queue_place(p)) {
        cycle_channels.push_back(expansion.place_channel[static_cast<std::size_t>(p)]);
      }
    }
    const std::int64_t deficit = cycle_deficit(
        pristine_tokens, static_cast<std::int64_t>(critical.cycle.size()), theta);
    // A cycle below the target holds fewer tokens than it needs, so the
    // current weights violate its constraint (covered >= 0 also makes the
    // deficit positive). They satisfy every earlier constraint, so the cycle
    // is new; and a cycle of forward places alone is a cycle of G, whose
    // mean is at least θ(G), so it has a queue channel.
    LID_ASSERT(!cycle_channels.empty(), "lazy sizing: degrading cycle without a queue channel");
    LID_ASSERT(covered < deficit, "lazy sizing: the current weights already meet the constraint");
    ++stats.cycles_generated;
    // Without the SCC collapse, `target` IS `lis`, so the cycle's place ids
    // are valid in the pristine d[G]: record the constraint as the sizing
    // certificate states it (queue channels in cycle order).
    if (!build_target.collapsed_used) {
      report.lazy_constraints.push_back({deficit,
                                         {cycle_channels.begin(), cycle_channels.end()},
                                         {critical.cycle.begin(), critical.cycle.end()}});
    }

    // Grow the instance: one new cycle, sets keyed by channel with
    // first-sighting indices (so previous weights stay aligned).
    std::sort(cycle_channels.begin(), cycle_channels.end());
    cycle_channels.erase(std::unique(cycle_channels.begin(), cycle_channels.end()),
                         cycle_channels.end());
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

    // Re-solve on the paper's simplified sub-instance: the reductions commit
    // the forced tokens, and the heuristic's cover seeds the LP branch and
    // bound's incumbent on what is left.
    const SimplifiedTd simplified = simplify(td, options.simplify_options);
    const TdSolution cover = solve_heuristic(simplified.reduced, options.heuristic);
    const ExactResult solved = solve_exact_milp(simplified.reduced, cover, options.exact);
    nodes_explored += solved.nodes_explored;
    if (solved.cancelled) {
      report.problem.cancelled = true;
      break;
    }
    // A budget cut keeps the cover: it is feasible on the sub-instance, which
    // is all the next separation round needs.
    proven = solved.solution.has_value();
    TdSolution full = simplified.lift(proven ? *solved.solution : cover);
    LID_ASSERT(td.is_feasible(full.weights), "lazy sub-solve infeasible on the sub-instance");
    weights = std::move(full.weights);
    total = full.total;

    // Re-marking: every sized queue gets pristine tokens + its weight.
    for (std::size_t s = 0; s < weights.size(); ++s) {
      const mg::PlaceId qp = expansion.queue_place(target_channels[s]);
      work.set_tokens(qp, expansion.graph.tokens(qp) + weights[s]);
    }
  }
  report.lazy->howard_warm_restarts = mcm.stats().warm_restarts - warm_before;
  if (report.problem.cancelled) return report;

  report.problem.problem_cycles = td.num_cycles();
  report.problem.channels.reserve(target_channels.size());
  for (const ChannelId ch : target_channels) {
    report.problem.channels.push_back(build_target.origin(ch));
  }

  // Howard shows the weights meet the target on the whole instance. The last
  // sub-solve's optimum, when proven, is the optimum of a relaxation of it,
  // so it is the whole instance's optimum too.
  SolverOutcome outcome;
  outcome.weights = std::move(weights);
  outcome.total_extra_tokens = total;
  outcome.finished = proven;
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
