// The per-SCC kernel behind mcm.hpp: Howard's policy iteration over a flat
// view of one strongly connected component, and the exact fallbacks it
// relies on. Internal — the public entry points are in mcm.hpp; this header
// exists so the kernel's differential test (tests/test_mcm_kernel.cpp) can
// drive each piece directly, including the fallbacks no solve reaches in
// practice.
//
// Layout: a component's n nodes get local ids 0..n-1 (their order in the
// SccPartition's member list), and its internal places become edges grouped
// by source node, in the source's out-edge order. Edge i of local node v
// lies in [offset[v], offset[v+1]) and carries its head (`dst`), its token
// count (`weight`) and the place it came from (`place`). A Howard policy is
// one edge index per node.
//
// Ranks: every policy cycle gets its exact mean p/q and a dense integer
// rank over the distinct means of every cycle seen since the last full
// round, dead cycles included (equal means, equal ranks; a smaller mean, a
// smaller rank). Nodes carry the rank of the cycle their policy chain
// reaches, so the improvement phases compare ints, never Rationals; values
// stay scaled integers (value_s[v] / q).
//
// Incremental rounds: on components of at least kIncrementalMinNodes nodes,
// a round after the first re-evaluates only the nodes whose policy chain
// reaches a node that just switched, phase 1 re-examines only those nodes
// and their predecessors, and phase 2 only the nodes touched since its own
// last pass. Policies, values, ranks' order, round counts and the critical
// cycle are those of full passes (DESIGN.md, "Howard kernel layout and the
// rank rule").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/scc.hpp"
#include "mg/marked_graph.hpp"
#include "mg/mcm.hpp"
#include "util/rational.hpp"

namespace lid::mg::kernel {

/// One strongly connected component, flattened (see the header comment).
struct SccView {
  int n = 0;
  std::vector<int> offset;           ///< n + 1 entries
  std::vector<int> dst;              ///< per edge: local id of the head
  std::vector<std::int64_t> weight;  ///< per edge: tokens of its place
  std::vector<PlaceId> place;        ///< per edge: place id in the graph

  [[nodiscard]] int num_edges() const { return static_cast<int>(dst.size()); }
};

/// Local id of every transition within its component: the position in
/// part.members[part.comp_of[t]]. Shared by all views of one partition.
std::vector<int> local_ids(const graph::SccPartition& part);

/// The view of component `comp` of `g` (`local_of` from local_ids(part)).
SccView make_view(const MarkedGraph& g, const graph::SccPartition& part,
                  const std::vector<int>& local_of, int comp);

/// Re-reads every edge weight from `g`'s marking (same structure).
void refresh_weights(SccView& view, const MarkedGraph& g);

/// Scratch shared by every Howard solve of one workspace: sized for the
/// largest SCC seen, never shrunk, so a warm re-solve allocates little
/// (the reverse index and round lists of incremental rounds excepted: a
/// solve that builds them frees them). After a solve it holds the last
/// evaluation: each node's policy cycle, rank and scaled value, and the
/// mean of every cycle it refers to.
struct HowardScratch {
  std::vector<int> cycle_of;          ///< per node: its policy cycle
  std::vector<int> rank;              ///< per node: rank of that cycle's mean
  std::vector<__int128> value_s;      ///< per node: value scaled by the mean's den
  std::vector<std::int64_t> mean_num; ///< per cycle seen: mean p/q, normalized
  std::vector<std::int64_t> mean_den;
  std::vector<int> cycle_rank;        ///< per cycle seen
  std::vector<int> order;             ///< cycles a round added, sorted by mean
  std::vector<int> cycle_stamp;
  std::vector<char> evaluated;
  std::vector<char> flag;             ///< per node: listed in `exam` / `pending`
  std::vector<int> chain;
  std::vector<int> cyc;
  std::vector<int> walk;
  std::vector<int> seen_at;
  std::vector<int> rev_offset;        ///< reverse index: n + 1 entries
  std::vector<int> rev_src;           ///< per in-edge: its source node
  std::vector<int> dirty;             ///< switched nodes, then their subtrees
  std::vector<int> exam;              ///< nodes phase 1 examines this round
  std::vector<int> pending;           ///< nodes phase 2 has not seen since touched
  std::vector<PlaceId> cycle;  ///< critical-cycle output buffer

  /// λ of node v in the last evaluation round.
  [[nodiscard]] util::Rational lambda(int v) const;
  /// True when node v's λ in the last evaluation round is exactly `mean`.
  [[nodiscard]] bool lambda_is(int v, const util::Rational& mean) const;
};

/// Components with fewer nodes run every round as a full pass: on them the
/// bookkeeping of an incremental round (the reverse index, the subtree walk,
/// the lists) costs more than the nodes it skips. Measured on the kernel
/// alone, incremental rounds took +37 % on components of ~13 nodes and ~2
/// rounds, and 4-7 % less at ~32 nodes and ~8 rounds.
inline constexpr int kIncrementalMinNodes = 32;

/// Howard's round cap on an n-node component: 2n + 1000. Measured cold, the
/// most rounds one solve took was 88 (on 473 nodes) over test_mcm_kernel's
/// sweep, which asserts that every solve stays under a tenth of the cap, and
/// 70 and 74 on the 105,000-node d[G] of the 10^5-core netlists of seeds 7
/// and 11. A policy that cycled on such a component would reach the exact
/// fallback after ~2·10^5 rounds.
[[nodiscard]] constexpr std::int64_t howard_round_cap(int n) {
  return 2 * static_cast<std::int64_t>(n) + 1000;
}

/// Howard's policy iteration (minimum cycle mean) on one component. Returns
/// the minimum mean; the critical cycle (place ids) lands in `sc.cycle`.
/// `policy` is in/out: when sized to the component it seeds the iteration
/// (warm start — any valid policy converges to the same minimum mean),
/// otherwise it is (re)seeded with each node's first minimum-weight
/// out-edge. `stats` accumulates the improvement rounds, node evaluations
/// and node examinations. When policy iteration does not settle within
/// howard_round_cap(n) rounds it returns exact_fallback_cycle's answer
/// instead.
util::Rational howard(const SccView& view, std::vector<int>& policy, HowardScratch& sc,
                      WorkspaceStats& stats);

/// The exact minimum mean μ (the parametric search, at every component
/// size) and a μ-mean cycle from the tight subgraph of Bellman-Ford
/// potentials, written into `cycle_out` (place ids).
util::Rational exact_fallback_cycle(const SccView& view, std::vector<PlaceId>& cycle_out);

/// True when `s` are valid scaled potentials for bound p/q:
/// q*w(e) - p + s[dst] - s[src] >= 0 on every edge (128-bit arithmetic).
bool potentials_valid(const SccView& view, std::int64_t p, std::int64_t q,
                      const std::vector<std::int64_t>& s);

/// Exact potentials for bound p/q (<= the component's minimum mean):
/// s = -dist of Bellman-Ford from a virtual source over the reduced costs
/// q*w(e) - p.
void bellman_ford_potentials(const SccView& view, std::int64_t p, std::int64_t q,
                             std::vector<std::int64_t>& s);

}  // namespace lid::mg::kernel
