// Lazy constraint generation (core/lazy_sizing.hpp): equivalence with the
// full enumerate-everything pipeline on the checked-in corpus, the COFDM SoC,
// the paper examples and 50 generated systems, convergence of certified
// 3*10^4-core sizings, plus the warm-start contract of the mg::Workspace
// Howard kernel that backs the separation oracle.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/certify.hpp"
#include "core/exact.hpp"
#include "core/heuristic.hpp"
#include "core/lazy_sizing.hpp"
#include "core/queue_sizing.hpp"
#include "gen/generator.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "mg/mcm.hpp"
#include "soc/cofdm.hpp"
#include "util/rng.hpp"
#include "verify/certificate.hpp"

#ifndef LID_DATA_DIR
#define LID_DATA_DIR "data"
#endif

namespace lid::core {
namespace {

using util::Rational;

std::int64_t total_queue_capacity(const lis::LisGraph& lis) {
  std::int64_t total = 0;
  for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(lis.num_channels()); ++ch) {
    total += lis.channel(ch).queue_capacity;
  }
  return total;
}

/// The acceptance bar: lazy and full sizing agree on the achieved MST and on
/// the total queue capacity of the sized netlist. When both exact solves
/// prove, the optimal extra-token totals must match exactly (at convergence
/// the lazy covering instance contains every binding constraint).
void expect_lazy_matches_full(const lis::LisGraph& lis) {
  QsOptions lazy_options;
  lazy_options.method = QsMethod::kLazy;
  QsOptions full_options;
  full_options.method = QsMethod::kBoth;

  const QsReport lazy = size_queues(lis, lazy_options);
  const QsReport full = size_queues(lis, full_options);

  ASSERT_TRUE(lazy.lazy.has_value());
  ASSERT_TRUE(lazy.exact.has_value());
  ASSERT_TRUE(full.exact.has_value());
  EXPECT_EQ(lazy.achieved_mst, full.achieved_mst);
  if (lazy.exact->finished && full.exact->finished) {
    EXPECT_EQ(lazy.exact->total_extra_tokens, full.exact->total_extra_tokens);
    EXPECT_EQ(total_queue_capacity(lazy.sized), total_queue_capacity(full.sized));
  }
}

TEST(LazySizing, MatchesFullOnPaperExamples) {
  expect_lazy_matches_full(lis::make_two_core_example());
  expect_lazy_matches_full(lis::make_two_core_example_sized());  // no degradation
  expect_lazy_matches_full(lis::make_fig15_counterexample());
}

TEST(LazySizing, MatchesFullOnCofdmSoc) { expect_lazy_matches_full(soc::build_cofdm()); }

TEST(LazySizing, MatchesFullOnEveryCorpusNetlist) {
  std::ifstream manifest(std::string(LID_DATA_DIR) + "/corpus/manifest.txt");
  ASSERT_TRUE(manifest.good()) << "missing corpus manifest";
  std::size_t count = 0;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string file = line.substr(0, line.find(' '));
    SCOPED_TRACE(file);
    expect_lazy_matches_full(lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + file));
    ++count;
  }
  EXPECT_EQ(count, 20u);
}

/// 10 seeds x 5 trials = 50 generated systems.
class LazyEquivalenceOnGenerated : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalenceOnGenerated, MatchesFullPipeline) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE(trial);
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(8, 20);
    params.sccs = rng.uniform_int(1, 4);
    params.min_cycles = rng.uniform_int(1, 3);
    params.relay_stations = rng.uniform_int(1, 5);
    params.reconvergent = true;
    // kScc needs an inter-SCC channel to put relay stations on.
    params.policy =
        trial % 2 == 0 && params.sccs > 1 ? gen::RsPolicy::kScc : gen::RsPolicy::kAny;
    expect_lazy_matches_full(gen::generate(params, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalenceOnGenerated,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(LazySizing, ReportsIterationAndConstraintCounts) {
  QsOptions options;
  options.method = QsMethod::kLazy;
  const QsReport r = size_queues(lis::make_fig15_counterexample(), options);
  ASSERT_TRUE(r.lazy.has_value());
  EXPECT_FALSE(r.lazy->fell_back);
  EXPECT_GE(r.lazy->iterations, 1);
  EXPECT_GE(r.lazy->cycles_generated, 1);
  // Every iteration after the first re-solves the same (remarked) structure.
  EXPECT_GE(r.lazy->howard_warm_restarts, 1);
  ASSERT_TRUE(r.exact.has_value());
  EXPECT_TRUE(r.exact->finished);
  EXPECT_EQ(r.achieved_mst, r.problem.theta_ideal);
}

TEST(LazySizing, NoDegradationConvergesWithoutIterating) {
  QsOptions options;
  options.method = QsMethod::kLazy;
  const QsReport r = size_queues(lis::make_two_core_example_sized(), options);
  ASSERT_TRUE(r.lazy.has_value());
  EXPECT_EQ(r.lazy->iterations, 0);
  EXPECT_EQ(r.lazy->cycles_generated, 0);
  EXPECT_EQ(r.achieved_mst, r.problem.theta_practical);
}

TEST(LazySizing, PreCancelledTokenReportsCancelledProblem) {
  QsOptions options;
  options.method = QsMethod::kLazy;
  options.build.cancel = util::CancelToken::after_ms(0.0);
  const QsReport r = size_queues(lis::make_fig15_counterexample(), options);
  EXPECT_TRUE(r.problem.cancelled);
  EXPECT_FALSE(r.exact.has_value());
}

/// 30000 cores, 60 SCCs, 120 extra cycles per SCC, 1500 relay stations —
/// `gen --v 30000 --s 60 --c 120 --rs 1500 --seed N`. The final sub-instance
/// of seed 7 has 12 cycles; the paper's exact search needs ~10^8 nodes to
/// prove its optimum unsimplified, the simplified one none.
lis::LisGraph scale_system(std::uint64_t seed) {
  gen::GeneratorParams params;
  params.vertices = 30'000;
  params.sccs = 60;
  params.min_cycles = 120;
  params.relay_stations = 1'500;
  util::Rng rng(seed);
  return gen::generate(params, rng);
}

class LazySizingAtScale : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazySizingAtScale, CertifiedSizingConverges) {
  const lis::LisGraph lis = scale_system(GetParam());

  QsOptions options;
  options.method = QsMethod::kLazy;
  // A sub-solve that cannot prove its round within this budget falls back
  // to enumeration, which the small cycle cap keeps short — either way the
  // test fails fast instead of stalling.
  options.exact.max_nodes = 10'000;
  options.build.max_cycles = 1'000;
  const QsReport r = size_queues(lis, options);
  ASSERT_TRUE(r.lazy.has_value());
  EXPECT_FALSE(r.lazy->fell_back);
  ASSERT_TRUE(r.exact.has_value());
  EXPECT_TRUE(r.exact->finished);
  EXPECT_GT(r.lazy->iterations, 1);
  // Some rounds keep cycles after the reductions, so the LP search runs.
  EXPECT_GT(r.exact->nodes_explored, 0);
  EXPECT_EQ(r.achieved_mst, r.problem.theta_target);
  // Optimal over its own constraint set: never above the paper's heuristic
  // on that set, and equal to the paper's exact search on it (simplified,
  // so the reference finishes).
  EXPECT_LE(r.exact->total_extra_tokens, solve_heuristic(r.problem.td).total);
  const SimplifiedTd simplified = simplify(r.problem.td);
  const ExactResult reference =
      solve_exact(simplified.reduced, solve_heuristic(simplified.reduced));
  ASSERT_TRUE(reference.solution.has_value());
  EXPECT_EQ(r.exact->total_extra_tokens, simplified.lift(*reference.solution).total);

  const verify::Certificate cert = certify_sizing(lis, r);
  EXPECT_EQ(cert.total, r.exact->total_extra_tokens);
  const verify::CheckResult checked = verify::check(lis, cert);
  EXPECT_TRUE(checked.ok) << checked.detail;
}

// On seed 8 the heuristic misses some rounds' reduced optimum, so the LP
// search has to improve on its seed.
INSTANTIATE_TEST_SUITE_P(Seeds, LazySizingAtScale, ::testing::Values(7, 8));

TEST(LazySizing, CancelReachesTheLpSubSolve) {
  QsOptions options;
  options.method = QsMethod::kLazy;
  // Only the sub-solve sees this token (the round loop polls
  // options.build.cancel), and its first poll fires: the report can be
  // cancelled only if the LP search polls it. On this system some round's
  // reduced sub-instance keeps cycles (LazySizingAtScale checks the LP
  // search runs), so a poll comes.
  options.exact.cancel = util::CancelToken::after_polls(1);
  const QsReport r = size_queues(scale_system(7), options);
  EXPECT_TRUE(r.problem.cancelled);
  ASSERT_TRUE(r.lazy.has_value());
  EXPECT_FALSE(r.lazy->fell_back);
  EXPECT_FALSE(r.exact.has_value());
}

TEST(LazySizing, ExternalWorkspaceIsReusedAcrossCalls) {
  mg::Workspace workspace;
  QsOptions options;
  const lis::LisGraph lis = lis::make_fig15_counterexample();
  const QsReport first = size_queues_lazy(lis, options, &workspace);
  ASSERT_TRUE(first.exact.has_value());
  const std::int64_t after_first = workspace.stats().warm_restarts;
  // A re-analysis of the same netlist hands back the same structure, so the
  // second run warm-starts from the first run's converged policies.
  const QsReport second = size_queues_lazy(lis, options, &workspace);
  EXPECT_EQ(first.exact->total_extra_tokens, second.exact->total_extra_tokens);
  EXPECT_EQ(first.achieved_mst, second.achieved_mst);
  EXPECT_GT(workspace.stats().warm_restarts, after_first);
}

// ---------------------------------------------------------------------------
// mg::Workspace warm-start contract.

TEST(McmWorkspace, WarmStartMatchesColdOnPerturbedMarkings) {
  const lis::Expansion expansion = lis::expand_doubled(lis::make_fig15_counterexample());
  mg::MarkedGraph work = expansion.graph;
  mg::Workspace ws;
  mg::MeanCycle out;
  ASSERT_TRUE(mg::min_cycle_mean_howard(work, ws, out));
  const std::int64_t cold = ws.stats().cold_starts;
  EXPECT_GT(cold, 0);
  EXPECT_EQ(ws.stats().warm_restarts, 0);
  EXPECT_EQ(out.mean, mg::min_cycle_mean_howard(work)->mean);

  // Token perturbations keep the structure, so every re-solve warm-starts —
  // and must agree exactly with a cold one-shot solve of the same marking.
  for (int round = 0; round < 4; ++round) {
    const mg::PlaceId victim = static_cast<mg::PlaceId>(round % work.num_places());
    work.set_tokens(victim, work.tokens(victim) + 1);
    ASSERT_TRUE(mg::min_cycle_mean_howard(work, ws, out));
    EXPECT_EQ(out.mean, mg::min_cycle_mean_howard(work)->mean) << "round " << round;
  }
  EXPECT_EQ(ws.stats().cold_starts, cold);  // never demoted
  EXPECT_GT(ws.stats().warm_restarts, 0);
}

TEST(McmWorkspace, StructureChangeDemotesToColdStartNeverWrongAnswer) {
  mg::Workspace ws;
  mg::MeanCycle out;
  const mg::MarkedGraph a = lis::expand_doubled(lis::make_fig15_counterexample()).graph;
  const mg::MarkedGraph b = lis::expand_doubled(lis::make_two_core_example()).graph;
  ASSERT_TRUE(mg::min_cycle_mean_howard(a, ws, out));
  const std::int64_t cold_after_a = ws.stats().cold_starts;
  ASSERT_TRUE(mg::min_cycle_mean_howard(b, ws, out));
  EXPECT_GT(ws.stats().cold_starts, cold_after_a);  // fingerprint mismatch
  EXPECT_EQ(out.mean, mg::min_cycle_mean_howard(b)->mean);
  // And back: another structure change, another cold start, same answer.
  ASSERT_TRUE(mg::min_cycle_mean_howard(a, ws, out));
  EXPECT_EQ(out.mean, mg::min_cycle_mean_howard(a)->mean);
}

TEST(McmWorkspace, WorkspaceHowardEqualsMstEverywhere) {
  util::Rng rng(99);
  mg::Workspace ws;
  mg::MeanCycle out;
  const auto workspace_mst = [&](const mg::MarkedGraph& g) {
    return mg::min_cycle_mean_howard(g, ws, out) ? util::Rational::min(util::Rational(1), out.mean)
                                                 : util::Rational(1);
  };
  for (int trial = 0; trial < 8; ++trial) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(6, 16);
    params.sccs = rng.uniform_int(1, 3);
    params.relay_stations = rng.uniform_int(0, 4);
    params.policy = gen::RsPolicy::kAny;
    const lis::LisGraph lis = gen::generate(params, rng);
    const mg::MarkedGraph ideal = lis::expand_ideal(lis).graph;
    const mg::MarkedGraph doubled = lis::expand_doubled(lis).graph;
    EXPECT_EQ(workspace_mst(ideal), mg::mst(ideal)) << "trial " << trial;
    EXPECT_EQ(workspace_mst(doubled), mg::mst(doubled)) << "trial " << trial;
  }
}

TEST(McmWorkspace, EvidenceIsColdAndLeavesItsPolicyBehind) {
  const lis::Expansion expansion = lis::expand_doubled(lis::make_fig15_counterexample());
  mg::Workspace ws;
  // Cold even when the workspace already holds this structure.
  mg::MeanCycle out;
  ASSERT_TRUE(mg::min_cycle_mean_howard(expansion.graph, ws, out));
  const mg::McmEvidence pooled = mg::mcm_evidence(expansion.graph, ws);
  const mg::McmEvidence fresh = mg::mcm_evidence(expansion.graph);
  ASSERT_TRUE(pooled.critical.has_value() && fresh.critical.has_value());
  EXPECT_EQ(pooled.critical->mean, fresh.critical->mean);
  EXPECT_EQ(pooled.critical->cycle, fresh.critical->cycle);
  EXPECT_EQ(pooled.component, fresh.component);
  EXPECT_EQ(pooled.lambda, fresh.lambda);
  EXPECT_EQ(pooled.potential, fresh.potential);
  EXPECT_EQ(ws.stats().warm_restarts, 0);

  // The converged policy stays behind: a re-solve of the same structure
  // warm-starts and agrees.
  ASSERT_TRUE(mg::min_cycle_mean_howard(expansion.graph, ws, out));
  EXPECT_GT(ws.stats().warm_restarts, 0);
  EXPECT_EQ(out.mean, fresh.critical->mean);
}

}  // namespace
}  // namespace lid::core
