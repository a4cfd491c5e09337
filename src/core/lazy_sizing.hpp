// Lazy critical-cycle constraint generation — queue sizing without up-front
// cycle enumeration.
//
// The eager pipeline (qs_problem.hpp) enumerates every elementary cycle of
// the doubled graph before the first sizing decision, even though the
// achieved MST is determined by a handful of *critical* cycles. This driver
// exploits that: starting from an empty TdInstance, it solves MCM with
// Howard's policy iteration on the (possibly SCC-collapsed) doubled graph,
// and while the achieved MST falls short of the target it adds exactly one
// constraint — the token deficit of the critical cycle Howard already
// produced — re-solves the small covering instance, applies the weights to
// the marking, and repeats. Each added constraint is violated by the
// current weights, so no cycle repeats and the loop converges; at
// convergence the sub-instance optimum equals the full-enumeration optimum
// (the solution is feasible for every cycle — Howard certifies the target —
// and the full optimum is bounded below by any sub-instance optimum).
//
// The sub-solve: the paper's reductions (token_deficit.hpp) shrink the
// sub-instance, the paper's heuristic seeds an incumbent on what is left,
// and the LP branch and bound of exact_milp.hpp proves the optimum, stopping
// as soon as the incumbent meets ⌈root LP⌉. Why not the paper's exact
// search (exact.hpp): it places one token per tree level, and at 10^5 cores
// a round reaches deficits in the hundreds over a few dozen cycles — a tree
// hundreds deep that it cannot close, while the LP bound closes each such
// round in at most 0.2 s (EXPERIMENTS.md, "Certified sizing at 10^5-core
// scale").
// Deficits, the recorded cycles and the certificate's constraint section
// stay over the unsimplified sub-instance.
//
// The separation oracle is warm-started: marking perturbations between
// rounds reuse the previous Howard policy via mg::Workspace, so a re-solve
// costs a few policy improvements instead of a cold start.
//
// When progress stalls (duplicate cycle, sub-solve cut off by budget, or a
// degrading cycle without a sizable queue) the driver falls back to the
// bounded full pipeline (QsMethod::kBoth) and reports it in LazyStats.
#pragma once

#include <optional>

#include "core/queue_sizing.hpp"
#include "mg/mcm.hpp"

namespace lid::core {

/// Runs the lazy solver on `lis`. `options.method` is ignored (this *is*
/// the kLazy implementation); `options.exact` budgets each sub-solve and the
/// fallback, `options.build` supplies target/cancel/collapse knobs, and
/// `options.simplify` applies only to the fallback pipeline. `workspace`
/// optionally shares a Howard workspace across calls (engine pooling); null
/// uses a solve-local one. θ(G) comes from one evidence pass on G, which the
/// report carries (QsReport::ideal_evidence) for the certificate;
/// `theta_practical`, when given, is θ(d[G]) as the caller already solved it.
QsReport size_queues_lazy(const lis::LisGraph& lis, const QsOptions& options = {},
                          mg::Workspace* workspace = nullptr,
                          const std::optional<util::Rational>& theta_practical = std::nullopt);

/// Like size_queues_lazy, but reuses already-computed θ(G) and θ(d[G]) (e.g.
/// from an engine::AnalysisCache). The thetas must be those of `lis` itself.
QsReport size_queues_lazy_with_mst(const lis::LisGraph& lis, const util::Rational& theta_ideal,
                                   const util::Rational& theta_practical,
                                   const QsOptions& options = {},
                                   mg::Workspace* workspace = nullptr);

}  // namespace lid::core
