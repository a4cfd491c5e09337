// Differential test of the Howard kernel (src/mg/mcm_kernel.hpp) against the
// kernel it replaced (mcm_oracle.*). Every solve runs in both from the same
// policy, and the policy, the scaled values, each node's λ, the minimum
// mean, the critical cycle and the improvement-round count must agree
// exactly, cold and warm. The public entry points (mcm_evidence and the
// workspace-backed min_cycle_mean_howard) are compared the same way, and so
// are the exact fallbacks no solve reaches in practice: Karp, the parametric
// search, the tight-subgraph cycle and the Bellman-Ford potentials.
//
// Inputs: fig1, fig15, COFDM, the 20 corpus systems, 2,400 small generated
// systems (general, pipelined, tree, cactus, mesh and torus shapes), 80 of
// 100-400 cores and one of 30,000 cores, each as G and as d[G]; d[G] is then
// re-marked through the rounds of its lazy sizing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/exact_milp.hpp"
#include "core/heuristic.hpp"
#include "core/lazy_sizing.hpp"
#include "core/qs_problem.hpp"
#include "core/token_deficit.hpp"
#include "gen/generator.hpp"
#include "graph/scc.hpp"
#include "lis/lis_graph.hpp"
#include "lis/netlist_io.hpp"
#include "mcm_oracle.hpp"
#include "mg/mcm.hpp"
#include "mg/mcm_kernel.hpp"
#include "soc/cofdm.hpp"
#include "util/rng.hpp"

namespace lid::mg {
namespace {

using util::Rational;

std::string str(__int128 v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  std::string digits;
  while (v != 0) {
    const int d = static_cast<int>(v % 10);
    digits.push_back(static_cast<char>('0' + (d < 0 ? -d : d)));
    v /= 10;
  }
  if (negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

/// The flat view lists exactly the old LocalScc's edges, in its order, so
/// policies (edge indices) mean the same thing in both kernels.
::testing::AssertionResult same_layout(const kernel::SccView& view,
                                       const oracle::LocalScc& local) {
  if (view.n != local.n) return ::testing::AssertionFailure() << "node counts differ";
  if (view.num_edges() != static_cast<int>(local.edges.size())) {
    return ::testing::AssertionFailure() << "edge counts differ";
  }
  for (int v = 0; v < view.n; ++v) {
    const auto& outs = local.out[static_cast<std::size_t>(v)];
    const int begin = view.offset[static_cast<std::size_t>(v)];
    if (view.offset[static_cast<std::size_t>(v) + 1] - begin != static_cast<int>(outs.size())) {
      return ::testing::AssertionFailure() << "out-degree of node " << v << " differs";
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const int e = begin + static_cast<int>(i);
      const auto& old = local.edges[static_cast<std::size_t>(outs[i])];
      if (outs[i] != e || old.src != v || old.dst != view.dst[static_cast<std::size_t>(e)] ||
          old.weight != view.weight[static_cast<std::size_t>(e)] ||
          old.place != view.place[static_cast<std::size_t>(e)]) {
        return ::testing::AssertionFailure() << "edge " << e << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Both kernels' state for one component across a sequence of solves.
struct Pair {
  kernel::SccView view;
  oracle::LocalScc local;
  std::vector<int> policy_new;
  std::vector<int> policy_old;
};

/// The solve with the most rounds so far, and its component's size.
struct LargestSolve {
  std::int64_t rounds = 0;
  int n = 0;
};
LargestSolve largest_solve;

void print_largest_solve() {
  std::cout << "most rounds in one solve: " << largest_solve.rounds << " on "
            << largest_solve.n << " nodes\n";
}

/// One solve in each kernel from the pair's current policies. No solve may
/// come within ten times of the kernel's round cap.
::testing::AssertionResult same_solve(Pair& pair, kernel::HowardScratch& sn,
                                      oracle::HowardScratch& so) {
  std::int64_t rounds_new = 0;
  std::int64_t rounds_old = 0;
  const Rational mean_new = kernel::howard(pair.view, pair.policy_new, sn, rounds_new);
  const Rational mean_old = oracle::howard_on_scc(pair.local, pair.policy_old, so, rounds_old);
  if (mean_new != mean_old) {
    return ::testing::AssertionFailure() << "mean " << mean_new << " vs " << mean_old;
  }
  if (rounds_new != rounds_old) {
    return ::testing::AssertionFailure() << "rounds " << rounds_new << " vs " << rounds_old;
  }
  if (rounds_new > largest_solve.rounds) largest_solve = {rounds_new, pair.view.n};
  if (10 * rounds_new > kernel::howard_round_cap(pair.view.n)) {
    return ::testing::AssertionFailure()
           << rounds_new << " rounds on " << pair.view.n << " nodes, near the round cap "
           << kernel::howard_round_cap(pair.view.n);
  }
  if (pair.policy_new != pair.policy_old) return ::testing::AssertionFailure() << "policies differ";
  if (sn.cycle != so.cycle) return ::testing::AssertionFailure() << "critical cycles differ";
  for (int v = 0; v < pair.view.n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (sn.lambda(v) != so.lambda[i]) {
      return ::testing::AssertionFailure()
             << "λ of node " << v << ": " << sn.lambda(v) << " vs " << so.lambda[i];
    }
    if (sn.value_s[i] != so.value_s[i]) {
      return ::testing::AssertionFailure() << "scaled value of node " << v << ": "
                                           << str(sn.value_s[i]) << " vs " << str(so.value_s[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<Pair> pairs_of(const MarkedGraph& g) {
  const graph::SccPartition part = graph::scc(g.structure());
  const std::vector<int> local_of = kernel::local_ids(part);
  std::vector<Pair> pairs;
  for (int c = 0; c < part.count; ++c) {
    if (!part.is_cyclic(c, g.structure())) continue;
    pairs.push_back(
        {kernel::make_view(g, part, local_of, c), oracle::make_local(g, part, c), {}, {}});
  }
  return pairs;
}

bool same_evidence(const McmEvidence& a, const McmEvidence& b) {
  const bool same_critical = a.critical.has_value() == b.critical.has_value() &&
                             (!a.critical || (a.critical->mean == b.critical->mean &&
                                              a.critical->cycle == b.critical->cycle));
  return same_critical && a.component == b.component && a.component_cyclic == b.component_cyclic &&
         a.lambda == b.lambda && a.potential == b.potential;
}

bool same_stats(const WorkspaceStats& a, const WorkspaceStats& b) {
  return a.cold_starts == b.cold_starts && a.warm_restarts == b.warm_restarts &&
         a.improvement_rounds == b.improvement_rounds;
}

/// Cold solves of every cyclic SCC of `g` through both kernels, then the
/// public entry points on `g`.
void compare_cold(const MarkedGraph& g, const std::string& name) {
  kernel::HowardScratch sn;
  oracle::HowardScratch so;
  for (Pair& pair : pairs_of(g)) {
    ASSERT_TRUE(same_layout(pair.view, pair.local)) << name;
    ASSERT_TRUE(same_solve(pair, sn, so)) << name << " (cold)";
  }
  Workspace ws;
  oracle::OracleWorkspace ows;
  EXPECT_TRUE(same_evidence(mcm_evidence(g, ws), oracle::mcm_evidence(g, ows))) << name;
  EXPECT_TRUE(same_stats(ws.stats(), ows.stats)) << name;
  // The evidence passes left their policies behind: this solve is warm.
  MeanCycle a;
  MeanCycle b;
  ASSERT_EQ(min_cycle_mean_howard(g, ws, a), oracle::min_cycle_mean_howard(g, ows, b)) << name;
  EXPECT_EQ(a.mean, b.mean) << name;
  EXPECT_EQ(a.cycle, b.cycle) << name;
  EXPECT_TRUE(same_stats(ws.stats(), ows.stats)) << name;
}

/// The options of the lazy sizing whose rounds compare_lazy_rounds replays:
/// the defaults without the SCC collapse, so the sizer works on d[G] itself.
core::QsOptions lazy_options() {
  core::QsOptions options;
  options.method = core::QsMethod::kLazy;
  options.build.allow_scc_collapse = false;
  return options;
}

/// d[G] re-marked through a lazy sizing's rounds, as core::size_queues_lazy
/// runs them: each round's critical cycle becomes one covering constraint
/// with its pristine deficit, the sub-instance is re-solved the sizer's way,
/// and every sized queue gets its pristine tokens plus its weight. Both
/// kernels solve each round warm from their previous policy, directly and
/// through their workspaces, for at most `max_rounds` rounds. `rounds`
/// receives the rounds run (max_rounds + 1 when cut off).
void compare_lazy_rounds(const lis::LisGraph& lis, const std::string& name, std::int64_t max_rounds,
                         std::int64_t& rounds) {
  rounds = 0;
  const Rational theta = lis::ideal_mst(lis);
  if (!(lis::practical_mst(lis) < theta)) return;
  const core::QsOptions options = lazy_options();
  const lis::Expansion pristine = lis::expand_doubled(lis);
  MarkedGraph work = pristine.graph;
  std::vector<Pair> pairs = pairs_of(work);
  kernel::HowardScratch sn;
  oracle::HowardScratch so;
  Workspace ws;
  oracle::OracleWorkspace ows;
  core::TdInstance td;
  std::map<lis::ChannelId, int> set_of_channel;
  std::vector<lis::ChannelId> channels;
  for (;;) {
    ++rounds;
    const std::string where = name + " round " + std::to_string(rounds);
    if (rounds > max_rounds) return;
    for (Pair& pair : pairs) {
      kernel::refresh_weights(pair.view, work);
      for (auto& e : pair.local.edges) e.weight = work.tokens(e.place);
      ASSERT_TRUE(same_solve(pair, sn, so)) << where;
    }
    MeanCycle a;
    MeanCycle b;
    const bool cyclic = min_cycle_mean_howard(work, ws, a);
    ASSERT_EQ(cyclic, oracle::min_cycle_mean_howard(work, ows, b)) << where;
    ASSERT_EQ(a.mean, b.mean) << where;
    ASSERT_EQ(a.cycle, b.cycle) << where;
    ASSERT_TRUE(same_stats(ws.stats(), ows.stats)) << where;
    if (!cyclic || Rational::min(Rational(1), a.mean) >= theta) return;

    const std::int64_t deficit =
        core::cycle_deficit(pristine.graph.cycle_tokens(a.cycle),
                            static_cast<std::int64_t>(a.cycle.size()), theta);
    std::vector<lis::ChannelId> on_cycle;
    for (const PlaceId p : a.cycle) {
      if (pristine.is_queue_place(p)) {
        on_cycle.push_back(pristine.place_channel[static_cast<std::size_t>(p)]);
      }
    }
    std::sort(on_cycle.begin(), on_cycle.end());
    on_cycle.erase(std::unique(on_cycle.begin(), on_cycle.end()), on_cycle.end());
    ASSERT_TRUE(deficit > 0 && !on_cycle.empty()) << where;
    const int cycle_index = static_cast<int>(td.deficits.size());
    td.deficits.push_back(deficit);
    for (const lis::ChannelId ch : on_cycle) {
      const auto [it, inserted] = set_of_channel.emplace(ch, static_cast<int>(channels.size()));
      if (inserted) {
        channels.push_back(ch);
        td.set_members.emplace_back();
      }
      td.set_members[static_cast<std::size_t>(it->second)].push_back(cycle_index);
    }
    const core::SimplifiedTd simplified = core::simplify(td, options.simplify_options);
    const core::ExactResult solved = core::solve_exact_milp(
        simplified.reduced, core::solve_heuristic(simplified.reduced, options.heuristic),
        options.exact);
    ASSERT_TRUE(solved.solution.has_value()) << where;
    const std::vector<std::int64_t> weights = simplified.lift(*solved.solution).weights;
    for (std::size_t s = 0; s < weights.size(); ++s) {
      const PlaceId qp = pristine.queue_place(channels[s]);
      work.set_tokens(qp, pristine.graph.tokens(qp) + weights[s]);
    }
  }
}

/// The exact fallbacks on every cyclic SCC of `g`: Karp and the parametric
/// search agree with the oracle's and with Howard's minimum mean, the
/// tight-subgraph cycle matches the oracle's and attains that mean, and the
/// Bellman-Ford potentials match and are valid.
void compare_exact(const MarkedGraph& g, const std::string& name) {
  kernel::HowardScratch sn;
  for (Pair& pair : pairs_of(g)) {
    std::int64_t rounds = 0;
    const Rational mean = kernel::howard(pair.view, pair.policy_new, sn, rounds);
    if (pair.view.n <= kernel::kKarpTableMaxNodes) {
      // Above the table, exact_fallback_cycle below runs the parametric search.
      const Rational karp = kernel::karp(pair.view);
      EXPECT_EQ(karp, oracle::karp_on_scc(pair.local)) << name;
      EXPECT_EQ(karp, mean) << name;
      const Rational param = kernel::parametric(pair.view);
      EXPECT_EQ(param, oracle::parametric_mcm(pair.local)) << name;
      EXPECT_EQ(param, mean) << name;
    }

    std::vector<PlaceId> cycle_new;
    std::vector<PlaceId> cycle_old;
    EXPECT_EQ(kernel::exact_fallback_cycle(pair.view, cycle_new), mean) << name;
    EXPECT_EQ(oracle::exact_fallback_cycle(pair.local, cycle_old), mean) << name;
    EXPECT_EQ(cycle_new, cycle_old) << name;
    EXPECT_EQ(Rational(g.cycle_tokens(cycle_new), static_cast<std::int64_t>(cycle_new.size())),
              mean)
        << name;

    // Potentials at the minimum mean and at a looser bound below it.
    for (const Rational& bound : {mean, Rational(mean.num(), mean.den() + 1)}) {
      std::vector<std::int64_t> s_new;
      std::vector<std::int64_t> s_old;
      kernel::bellman_ford_potentials(pair.view, bound.num(), bound.den(), s_new);
      oracle::bellman_ford_potentials(pair.local, bound.num(), bound.den(), s_old);
      EXPECT_EQ(s_new, s_old) << name;
      EXPECT_TRUE(kernel::potentials_valid(pair.view, bound.num(), bound.den(), s_new)) << name;
      EXPECT_TRUE(oracle::potentials_valid(pair.local, bound.num(), bound.den(), s_new)) << name;
    }
  }
}

/// Cold solves of G and d[G], then d[G] through a lazy sizing's rounds (all
/// of them, or the first `max_rounds`); `warm_solves` accumulates the
/// solves after the first. A replay that ran to the end must have run the
/// sizer's own number of rounds.
void compare_system(const lis::LisGraph& lis, const std::string& name, std::int64_t& warm_solves,
                    std::int64_t max_rounds = 512) {
  compare_cold(lis::expand_ideal(lis).graph, name + " G");
  compare_cold(lis::expand_doubled(lis).graph, name + " d[G]");
  std::int64_t rounds = 0;
  compare_lazy_rounds(lis, name, max_rounds, rounds);
  if (rounds == 0) return;
  warm_solves += std::min(rounds, max_rounds) - 1;
  if (rounds > max_rounds) return;
  const core::QsReport report = core::size_queues_lazy(lis, lazy_options());
  ASSERT_TRUE(report.lazy.has_value()) << name;
  EXPECT_FALSE(report.lazy->fell_back) << name;
  EXPECT_EQ(report.lazy->iterations, rounds) << name << ": the replay left the sizer's rounds";
}

TEST(McmKernel, PaperSystemsAndCofdm) {
  std::int64_t warm = 0;
  for (const char* file : {"fig1.lis", "fig15.lis", "cofdm.lis"}) {
    const lis::LisGraph lis = lis::load_netlist(std::string(LID_DATA_DIR) + "/" + file);
    compare_system(lis, file, warm);
    compare_exact(lis::expand_doubled(lis).graph, file);
  }
  compare_system(soc::build_cofdm(), "build_cofdm", warm);
  std::cout << "warm solves compared: " << warm << "\n";
  print_largest_solve();
}

TEST(McmKernel, Corpus) {
  std::int64_t warm = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string file = "sys" + std::to_string(i) + ".lis";
    const lis::LisGraph lis = lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + file);
    compare_system(lis, file, warm);
    compare_exact(lis::expand_ideal(lis).graph, file + " G");
  }
  std::cout << "warm solves compared: " << warm << "\n";
  print_largest_solve();
}

/// A generated system of one of six shapes; a third of the general ones get
/// pipelined cores (latency 2-4), whose stages add zero-token places.
lis::LisGraph generated(int k, util::Rng& rng) {
  switch (k % 6) {
    case 0:
    case 1: {
      gen::GeneratorParams params;
      params.vertices = rng.uniform_int(2, 40);
      params.sccs = rng.uniform_int(1, std::max(1, params.vertices / 3));
      params.min_cycles = rng.uniform_int(0, 4);
      params.reconvergent = rng.uniform_int(0, 1) == 1;
      params.policy = params.sccs >= 2 && rng.uniform_int(0, 1) == 1 ? gen::RsPolicy::kScc
                                                                     : gen::RsPolicy::kAny;
      params.relay_stations = rng.uniform_int(0, 20);
      params.queue_capacity = rng.uniform_int(1, 2);
      lis::LisGraph lis = gen::generate(params, rng);
      if (k % 3 == 0) {
        for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
          if (rng.uniform_int(0, 3) == 0) lis.set_core_latency(v, rng.uniform_int(2, 4));
        }
      }
      return lis;
    }
    case 2: return gen::generate_tree(rng.uniform_int(2, 30), rng.uniform_int(0, 8), rng);
    case 3:
      return gen::generate_cactus(rng.uniform_int(1, 6), rng.uniform_int(2, 6),
                                  rng.uniform_int(0, 8), rng);
    case 4:
      return gen::generate_mesh(rng.uniform_int(1, 5), rng.uniform_int(1, 5),
                                rng.uniform_int(0, 8), rng);
    default:
      return gen::generate_torus(rng.uniform_int(2, 5), rng.uniform_int(2, 5),
                                 rng.uniform_int(0, 8), rng);
  }
}

TEST(McmKernel, GeneratedSystems) {
  util::Rng rng(20261019);
  std::int64_t warm = 0;
  for (int k = 0; k < 2400; ++k) {
    const lis::LisGraph lis = generated(k, rng);
    const std::string name = "generated #" + std::to_string(k);
    compare_system(lis, name, warm);
    if (::testing::Test::HasFatalFailure()) return;
    if (k % 8 == 0) compare_exact(lis::expand_doubled(lis).graph, name);
  }
  std::cout << "warm solves compared: " << warm << "\n";
  print_largest_solve();
}

TEST(McmKernel, MediumGeneratedSystems) {
  util::Rng rng(7);
  std::int64_t warm = 0;
  for (int k = 0; k < 80; ++k) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(100, 400);
    params.sccs = rng.uniform_int(2, 10);
    params.min_cycles = rng.uniform_int(2, 10);
    params.relay_stations = rng.uniform_int(20, 100);
    lis::LisGraph lis = gen::generate(params, rng);
    if (k % 2 == 0) lis.set_core_latency(0, 3);
    compare_system(lis, "medium #" + std::to_string(k), warm);
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::cout << "warm solves compared: " << warm << "\n";
  print_largest_solve();
}

TEST(McmKernel, ThirtyThousandCores) {
  gen::GeneratorParams params;
  params.vertices = 30'000;
  params.sccs = 60;
  params.min_cycles = 120;
  params.relay_stations = 1'500;
  util::Rng rng(7);
  std::int64_t warm = 0;
  compare_system(gen::generate(params, rng), "30,000 cores", warm, 3);
  std::cout << "warm solves compared: " << warm << "\n";
  print_largest_solve();
}

/// A ring of n transitions with chords: one SCC, larger than Karp's table
/// allows, so the fallback takes the parametric search.
MarkedGraph ring_with_chords(int n, util::Rng& rng) {
  MarkedGraph g;
  for (int v = 0; v < n; ++v) g.add_transition(TransitionKind::kShell);
  for (int v = 0; v < n; ++v) g.add_place(v, (v + 1) % n, rng.uniform_int(0, 2));
  for (int k = 0; k < n / 64; ++k) {
    const int u = rng.uniform_int(0, n - 1);
    g.add_place(u, rng.uniform_int(0, n - 1), rng.uniform_int(0, 3));
  }
  return g;
}

TEST(McmKernel, ExactFallbackAboveKarpTable) {
  util::Rng rng(11);
  const MarkedGraph g = ring_with_chords(kernel::kKarpTableMaxNodes + 1, rng);
  const graph::SccPartition part = graph::scc(g.structure());
  ASSERT_EQ(part.count, 1);
  compare_exact(g, "ring above Karp's table");
}

TEST(McmKernel, ExactFallbackOnSmallRings) {
  util::Rng rng(13);
  for (int k = 0; k < 50; ++k) {
    compare_exact(ring_with_chords(rng.uniform_int(2, 300), rng), "ring");
  }
}

}  // namespace
}  // namespace lid::mg
