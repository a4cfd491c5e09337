// The minimum-cycle-mean kernel as it was before the flat per-SCC view and
// the integer mean ranks of src/mg/mcm_kernel.hpp: a LocalScc with one
// adjacency vector per node and Rational λ compared per edge. The bodies
// here and in mcm_oracle.cpp are kept verbatim, renamespaced, as the oracle
// that test_mcm_kernel compares the production kernel against.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/scc.hpp"
#include "mg/marked_graph.hpp"
#include "mg/mcm.hpp"
#include "util/rational.hpp"

namespace lid::mg::oracle {

/// A per-SCC view with local node indices; edges carry their original place
/// id and token weight.
struct LocalScc {
  struct LocalEdge {
    int src;
    int dst;
    std::int64_t weight;
    PlaceId place;
  };
  int n = 0;
  std::vector<LocalEdge> edges;
  std::vector<std::vector<int>> out;  // indices into `edges`
};

LocalScc make_local(const MarkedGraph& g, const graph::SccPartition& part, int comp);

/// Scratch vectors shared by every Howard solve issued through one workspace
/// (or one top-level call): sized for the largest SCC seen, never shrunk, so
/// a warm re-solve allocates nothing.
///
/// Values are kept as scaled integers, not Rationals: within one policy
/// chain tree every node inherits the lambda p/q of its root cycle, so the
/// exact value is value_s[v] / lambda[v].den(). Keeping the integer numerator
/// makes every evaluation and phase-2 comparison a handful of integer ops —
/// the Rational representation paid a gcd normalization per edge per round,
/// which dominated the solve on 10^5-node components.
struct HowardScratch {
  std::vector<util::Rational> lambda;
  std::vector<__int128> value_s;  // value numerator, scaled by lambda's den
  std::vector<int> cycle_stamp;
  std::vector<char> evaluated;
  std::vector<int> chain;
  std::vector<int> cyc;
  std::vector<int> walk;
  std::vector<int> seen_at;
  std::vector<PlaceId> cycle;  // critical-cycle output buffer
};

util::Rational karp_on_scc(const LocalScc& local);
util::Rational parametric_mcm(const LocalScc& local);
util::Rational exact_fallback_cycle(const LocalScc& local, std::vector<PlaceId>& cycle_out);
util::Rational howard_on_scc(const LocalScc& local, std::vector<int>& policy, HowardScratch& sc,
                             std::int64_t& rounds);
bool potentials_valid(const LocalScc& local, std::int64_t p, std::int64_t q,
                      const std::vector<std::int64_t>& s);
void bellman_ford_potentials(const LocalScc& local, std::int64_t p, std::int64_t q,
                             std::vector<std::int64_t>& s);
std::uint64_t structure_fingerprint(const MarkedGraph& g);

/// The workspace state behind the old mg::Workspace.
struct OracleWorkspace {
  bool valid = false;
  std::uint64_t fingerprint = 0;
  std::vector<LocalScc> locals;              // cyclic SCCs, in scc() order
  std::vector<std::vector<int>> policies;    // last policy per local SCC
  HowardScratch scratch;
  WorkspaceStats stats;

  /// Points the cached views at `g`: true when the previous structure matched
  /// and only edge weights needed refreshing, false after a full rebuild.
  bool prepare(const MarkedGraph& g) {
    const std::uint64_t fp = structure_fingerprint(g);
    if (valid && fp == fingerprint) {
      for (LocalScc& local : locals) {
        for (LocalScc::LocalEdge& e : local.edges) e.weight = g.tokens(e.place);
      }
      return true;
    }
    rebuild(g, graph::scc(g.structure()), fp);
    return false;
  }

  /// Caches `g`'s cyclic SCCs (in `part` order) with no policy: solves start cold.
  void rebuild(const MarkedGraph& g, const graph::SccPartition& part, std::uint64_t fp) {
    locals.clear();
    policies.clear();
    for (int c = 0; c < part.count; ++c) {
      if (!part.is_cyclic(c, g.structure())) continue;
      locals.push_back(make_local(g, part, c));
    }
    policies.resize(locals.size());
    fingerprint = fp;
    valid = true;
  }
};

/// The old mg::min_cycle_mean_howard(g, ws, out) and mg::mcm_evidence(g, ws).
bool min_cycle_mean_howard(const MarkedGraph& g, OracleWorkspace& ws, MeanCycle& out);
McmEvidence mcm_evidence(const MarkedGraph& g, OracleWorkspace& ws);

}  // namespace lid::mg::oracle
