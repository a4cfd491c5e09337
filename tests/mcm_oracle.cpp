// The minimum-cycle-mean kernel as it was before the flat per-SCC view and
// the integer mean ranks (src/mg/mcm_kernel.hpp): a LocalScc with one
// adjacency vector per node, Rational λ compared per edge. Its bodies are
// kept verbatim, renamespaced, as the oracle that test_mcm_kernel compares
// the production kernel against.
#include "mcm_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "util/check.hpp"

namespace lid::mg::oracle {

using graph::EdgeId;
using graph::NodeId;
using util::Rational;

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

LocalScc make_local(const MarkedGraph& g, const graph::SccPartition& part, int comp) {
  const auto& members = part.members[static_cast<std::size_t>(comp)];
  std::vector<int> local_of(g.num_transitions(), -1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    local_of[static_cast<std::size_t>(members[i])] = static_cast<int>(i);
  }
  LocalScc local;
  local.n = static_cast<int>(members.size());
  local.out.resize(members.size());
  const graph::Digraph& s = g.structure();
  for (const NodeId v : members) {
    for (const EdgeId e : s.out_edges(v)) {
      const NodeId w = s.edge(e).dst;
      if (part.comp_of[static_cast<std::size_t>(w)] != comp) continue;
      const int lu = local_of[static_cast<std::size_t>(v)];
      const int lw = local_of[static_cast<std::size_t>(w)];
      local.out[static_cast<std::size_t>(lu)].push_back(static_cast<int>(local.edges.size()));
      local.edges.push_back({lu, lw, g.tokens(e), e});
    }
  }
  return local;
}

/// Karp's minimum cycle mean on one strongly connected component.
Rational karp_on_scc(const LocalScc& local) {
  const int n = local.n;
  LID_ASSERT(n >= 1, "karp_on_scc: empty SCC");
  // D[k][v] = min weight of a walk with exactly k edges from node 0 to v.
  std::vector<std::vector<std::int64_t>> d(static_cast<std::size_t>(n) + 1,
                                           std::vector<std::int64_t>(n, kInf));
  d[0][0] = 0;
  for (int k = 1; k <= n; ++k) {
    for (const auto& e : local.edges) {
      const std::int64_t base = d[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(e.src)];
      if (base == kInf) continue;
      auto& cell = d[static_cast<std::size_t>(k)][static_cast<std::size_t>(e.dst)];
      cell = std::min(cell, base + e.weight);
    }
  }

  bool found = false;
  Rational best;
  for (int v = 0; v < n; ++v) {
    const std::int64_t dn = d[static_cast<std::size_t>(n)][static_cast<std::size_t>(v)];
    if (dn == kInf) continue;
    bool have_term = false;
    Rational worst;
    for (int k = 0; k < n; ++k) {
      const std::int64_t dk = d[static_cast<std::size_t>(k)][static_cast<std::size_t>(v)];
      if (dk == kInf) continue;
      const Rational term(dn - dk, n - k);
      if (!have_term || term > worst) {
        worst = term;
        have_term = true;
      }
    }
    LID_ASSERT(have_term, "karp_on_scc: no finite prefix for a reachable node");
    if (!found || worst < best) {
      best = worst;
      found = true;
    }
  }
  LID_ASSERT(found, "karp_on_scc: strongly connected component without a cycle");
  return best;
}

namespace {

/// Bellman-Ford from a virtual source joined to every node at cost 0, over
/// the integer reduced costs q*w(e) - p, for at most `passes` passes into
/// `dist`. True once a pass relaxes nothing (the distances have settled).
bool reduced_cost_distances(const LocalScc& local, __int128 p, std::int64_t q, int passes,
                            std::vector<__int128>& dist) {
  dist.assign(static_cast<std::size_t>(local.n), 0);
  for (int pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (const auto& e : local.edges) {
      const __int128 cand = dist[static_cast<std::size_t>(e.src)] +
                            static_cast<__int128>(q) * e.weight - p;
      if (cand < dist[static_cast<std::size_t>(e.dst)]) {
        dist[static_cast<std::size_t>(e.dst)] = cand;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;
}

/// The minimum-denominator fraction in the closed interval [a/b, c/d]
/// (0 <= a/b <= c/d), by Stern-Brocot / continued-fraction descent. Used to
/// recover an exact cycle mean from a bisection bracket: once the bracket is
/// narrower than 1/n^2 it contains exactly one fraction with denominator
/// <= n, and that fraction is the minimum-denominator one.
Rational simplest_between(__int128 a, __int128 b, __int128 c, __int128 d) {
  // Convergent accumulation: the result is the continued fraction
  // [i0; i1, ..., t] and equals (p1*t + p0) / (q1*t + q0) at termination.
  __int128 p0 = 0;
  __int128 q0 = 1;
  __int128 p1 = 1;
  __int128 q1 = 0;
  for (;;) {
    const __int128 i = a / b;
    const __int128 r = a - i * b;
    const __int128 ceil_lo = i + (r != 0 ? 1 : 0);
    if (ceil_lo * d <= c) {
      // An integer lies in the (shifted) interval: it terminates the descent.
      const __int128 num = p1 * ceil_lo + p0;
      const __int128 den = q1 * ceil_lo + q0;
      LID_ASSERT(num >= std::numeric_limits<std::int64_t>::min() &&
                     num <= std::numeric_limits<std::int64_t>::max() && den > 0 &&
                     den <= std::numeric_limits<std::int64_t>::max(),
                 "simplest_between: result exceeds int64");
      return Rational(static_cast<std::int64_t>(num), static_cast<std::int64_t>(den));
    }
    // Same integer gap: emit coefficient i, recurse on the reciprocal of the
    // fractional parts (which swaps the interval's endpoints).
    const __int128 np1 = p1 * i + p0;
    const __int128 nq1 = q1 * i + q0;
    p0 = p1;
    q0 = q1;
    p1 = np1;
    q1 = nq1;
    const __int128 na = d;
    const __int128 nb = c - i * d;
    const __int128 nc = b;
    const __int128 nd = r;
    a = na;
    b = nb;
    c = nc;
    d = nd;
  }
}

}  // namespace

/// Exact minimum cycle mean in O(V+E) memory: bisect the mean over a
/// power-of-two grid with integer negative-cycle tests until the bracket is
/// narrower than 1/n^2, then recover the unique denominator-<=-n fraction
/// inside it. Time is O(V*E*log(n*W)) — acceptable only on the
/// policy-iteration paranoia path, where Karp's O(V^2) table would not fit
/// in memory at this node count.
Rational parametric_mcm(const LocalScc& local) {
  std::int64_t wmax = 0;
  for (const auto& e : local.edges) wmax = std::max(wmax, e.weight);
  // Bracket invariant: no cycle mean < lo, some cycle mean < hi, with
  // lo = num_lo / 2^k and hi = num_hi / 2^k. Token weights are nonnegative,
  // so 0 is a valid lower bound; wmax + 1 exceeds every cycle mean.
  __int128 num_lo = 0;
  __int128 num_hi = wmax + 1;
  std::int64_t q = 1;  // common denominator 2^k
  const __int128 n2 = static_cast<__int128>(local.n) * local.n;
  std::vector<__int128> dist;
  while ((num_hi - num_lo) * n2 >= q) {
    const __int128 mid = num_lo + num_hi;  // over denominator 2^(k+1)
    LID_ASSERT(q <= std::numeric_limits<std::int64_t>::max() / 2,
               "parametric_mcm: bisection denominator exceeds int64");
    q *= 2;
    // Some cycle has mean below mid/q exactly when a negative reduced-cost
    // cycle keeps the distances from settling within n + 1 passes.
    if (!reduced_cost_distances(local, mid, q, local.n + 1, dist)) {
      num_hi = mid;
      num_lo *= 2;
    } else {
      num_lo = mid;
      num_hi *= 2;
    }
  }
  const Rational mu = simplest_between(num_lo, q, num_hi, q);
  LID_ASSERT(mu.den() <= local.n, "parametric_mcm: recovered mean has an impossible denominator");
  return mu;
}

/// Karp's O(V^2) walk table stays affordable up to this many nodes (~134 MB);
/// larger components use the O(V+E)-memory parametric search instead.
constexpr int kKarpTableMaxNodes = 4096;

/// Exact critical-cycle extraction used when policy iteration fails to
/// settle: take the exact minimum mean μ = p/q (Karp when the table fits,
/// parametric search beyond), compute Bellman-Ford potentials for integer
/// reduced costs q*w(e) - p, and walk the tight subgraph (edges achieving
/// equality), which always contains a μ-mean cycle. The cycle is written
/// into `cycle_out` (buffer reused); the mean μ is returned.
Rational exact_fallback_cycle(const LocalScc& local, std::vector<PlaceId>& cycle_out) {
  const Rational mu =
      local.n <= kKarpTableMaxNodes ? karp_on_scc(local) : parametric_mcm(local);
  const auto n = static_cast<std::size_t>(local.n);
  const std::int64_t p = mu.num();
  const std::int64_t q = mu.den();
  std::vector<__int128> dist;
  reduced_cost_distances(local, p, q, local.n, dist);
  // Tight edges: dist[dst] == dist[src] + q*w - p. Around a critical cycle
  // all inequalities hold with equality, so the tight subgraph contains a
  // cycle, and every cycle of the tight subgraph has reduced cost 0, i.e.
  // mean μ.
  graph::Digraph tight_graph(n);
  std::vector<int> tight_origin;  // tight-graph edge -> local edge index
  for (int e = 0; e < static_cast<int>(local.edges.size()); ++e) {
    const auto& edge = local.edges[static_cast<std::size_t>(e)];
    if (dist[static_cast<std::size_t>(edge.dst)] ==
        dist[static_cast<std::size_t>(edge.src)] + static_cast<__int128>(q) * edge.weight - p) {
      tight_graph.add_edge(edge.src, edge.dst);
      tight_origin.push_back(e);
    }
  }
  cycle_out.clear();
  for (const graph::EdgeId te : graph::find_cycle(tight_graph)) {
    cycle_out.push_back(
        local.edges[static_cast<std::size_t>(tight_origin[static_cast<std::size_t>(te)])].place);
  }
  LID_ASSERT(!cycle_out.empty(), "exact_fallback_cycle: tight subgraph has no cycle");
  return mu;
}

/// Howard's policy iteration (min cycle mean) on one strongly connected
/// component. Returns the minimum mean; the critical cycle (place ids) lands
/// in `sc.cycle`. `policy` is in/out: when sized to the SCC it seeds the
/// iteration (warm start — any valid policy converges to the same minimum
/// mean), otherwise it is (re)seeded with each node's minimum-weight
/// out-edge. `rounds` accumulates policy-improvement rounds.
Rational howard_on_scc(const LocalScc& local, std::vector<int>& policy, HowardScratch& sc,
                       std::int64_t& rounds) {
  const int n = local.n;
  const auto ns = static_cast<std::size_t>(n);
  // Policy: chosen out-edge (index into local.edges) per node.
  if (policy.size() != ns) {
    policy.assign(ns, -1);
    for (int v = 0; v < n; ++v) {
      const auto& outs = local.out[static_cast<std::size_t>(v)];
      LID_ASSERT(!outs.empty(), "howard_on_scc: SCC node without internal out-edge");
      int best = outs.front();
      for (const int e : outs) {
        if (local.edges[static_cast<std::size_t>(e)].weight <
            local.edges[static_cast<std::size_t>(best)].weight) {
          best = e;
        }
      }
      policy[static_cast<std::size_t>(v)] = best;
    }
  }

  sc.lambda.assign(ns, Rational());
  sc.value_s.assign(ns, 0);
  sc.cycle_stamp.assign(ns, -1);  // which evaluation round visited the node
  sc.evaluated.assign(ns, 0);
  auto& lambda = sc.lambda;
  auto& value_s = sc.value_s;
  auto& cycle_stamp = sc.cycle_stamp;
  auto& evaluated = sc.evaluated;

  const auto evaluate = [&] {
    std::fill(evaluated.begin(), evaluated.end(), 0);
    std::fill(cycle_stamp.begin(), cycle_stamp.end(), -1);
    int round = 0;
    for (int start = 0; start < n; ++start) {
      if (evaluated[static_cast<std::size_t>(start)]) continue;
      // Follow the policy chain until we hit an evaluated node or revisit a
      // node from this walk (found the policy cycle).
      auto& chain = sc.chain;
      chain.clear();
      int v = start;
      while (!evaluated[static_cast<std::size_t>(v)] &&
             cycle_stamp[static_cast<std::size_t>(v)] != round) {
        cycle_stamp[static_cast<std::size_t>(v)] = round;
        chain.push_back(v);
        v = local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(v)])].dst;
      }
      if (!evaluated[static_cast<std::size_t>(v)]) {
        // v lies on a fresh policy cycle: compute its mean, then values.
        std::int64_t tokens = 0;
        std::int64_t length = 0;
        int u = v;
        do {
          tokens += local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(u)])].weight;
          ++length;
          u = local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(u)])].dst;
        } while (u != v);
        const Rational mean(tokens, length);
        // Collect the cycle and anchor at its minimum node id (a
        // deterministic anchor keeps values comparable across evaluation
        // rounds, which phase-2 termination relies on), then solve
        // value[u] = w(u) - mean + value[next(u)] in reverse visit order.
        auto& cyc = sc.cyc;
        cyc.clear();
        u = v;
        do {
          cyc.push_back(u);
          u = local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(u)])].dst;
        } while (u != v);
        std::rotate(cyc.begin(), std::min_element(cyc.begin(), cyc.end()), cyc.end());
        const int anchor = cyc.front();
        lambda[static_cast<std::size_t>(anchor)] = mean;
        value_s[static_cast<std::size_t>(anchor)] = 0;
        evaluated[static_cast<std::size_t>(anchor)] = 1;
        const std::int64_t p = mean.num();
        const std::int64_t q = mean.den();
        for (std::size_t i = cyc.size(); i-- > 1;) {
          const int node = cyc[i];
          const auto& e = local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(node)])];
          lambda[static_cast<std::size_t>(node)] = mean;
          value_s[static_cast<std::size_t>(node)] =
              static_cast<__int128>(q) * e.weight - p + value_s[static_cast<std::size_t>(e.dst)];
          evaluated[static_cast<std::size_t>(node)] = 1;
        }
      }
      // Nodes on the chain before reaching `v` inherit v's cycle data; their
      // scaled values share the inherited lambda's denominator.
      for (std::size_t i = chain.size(); i-- > 0;) {
        const int node = chain[i];
        if (evaluated[static_cast<std::size_t>(node)]) continue;
        const auto& e = local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(node)])];
        const Rational lam = lambda[static_cast<std::size_t>(e.dst)];
        lambda[static_cast<std::size_t>(node)] = lam;
        value_s[static_cast<std::size_t>(node)] =
            static_cast<__int128>(lam.den()) * e.weight - lam.num() +
            value_s[static_cast<std::size_t>(e.dst)];
        evaluated[static_cast<std::size_t>(node)] = 1;
      }
      ++round;
    }
  };

  const long max_iterations = 1000L * n + 1000L;
  bool converged = false;
  for (long iter = 0; iter < max_iterations; ++iter) {
    evaluate();
    ++rounds;
    bool improved = false;
    // Phase 1: switch to a successor whose policy cycle has a smaller mean.
    for (int v = 0; v < n; ++v) {
      int best = policy[static_cast<std::size_t>(v)];
      Rational best_lambda =
          lambda[static_cast<std::size_t>(local.edges[static_cast<std::size_t>(best)].dst)];
      for (const int e : local.out[static_cast<std::size_t>(v)]) {
        const Rational cand = lambda[static_cast<std::size_t>(local.edges[static_cast<std::size_t>(e)].dst)];
        if (cand < best_lambda) {
          best = e;
          best_lambda = cand;
        }
      }
      if (best != policy[static_cast<std::size_t>(v)]) {
        policy[static_cast<std::size_t>(v)] = best;
        improved = true;
      }
    }
    if (improved) continue;
    // Phase 2: same-lambda value improvement. Restricting candidates to
    // successors with an identical lambda means every compared value shares
    // one denominator, so the scaled integers compare directly.
    for (int v = 0; v < n; ++v) {
      const Rational lam = lambda[static_cast<std::size_t>(v)];
      const std::int64_t p = lam.num();
      const std::int64_t q = lam.den();
      int best = policy[static_cast<std::size_t>(v)];
      const auto reduced = [&](int e) {
        const auto& edge = local.edges[static_cast<std::size_t>(e)];
        return static_cast<__int128>(q) * edge.weight - p +
               value_s[static_cast<std::size_t>(edge.dst)];
      };
      __int128 best_value = reduced(best);
      for (const int e : local.out[static_cast<std::size_t>(v)]) {
        const auto& edge = local.edges[static_cast<std::size_t>(e)];
        if (lambda[static_cast<std::size_t>(edge.dst)] != lam) continue;
        const __int128 cand = reduced(e);
        if (cand < best_value) {
          best = e;
          best_value = cand;
        }
      }
      if (best_value < value_s[static_cast<std::size_t>(v)]) {
        policy[static_cast<std::size_t>(v)] = best;
        improved = true;
      }
    }
    if (!improved) {
      converged = true;
      break;
    }
  }
  if (!converged) {
    // Degenerate tie structures can make multichain policy iteration cycle;
    // fall back to an always-exact mean with a tight-subgraph cycle
    // extraction (Bellman-Ford potentials; edges tight at the optimum form a
    // subgraph that must contain a critical cycle).
    return exact_fallback_cycle(local, sc.cycle);
  }

  // Extract the critical policy cycle: start from a node with minimal lambda.
  int start = 0;
  for (int v = 1; v < n; ++v) {
    if (lambda[static_cast<std::size_t>(v)] < lambda[static_cast<std::size_t>(start)]) start = v;
  }
  // Walk the policy until a node repeats; then emit the cycle portion.
  sc.seen_at.assign(ns, -1);
  auto& seen_at = sc.seen_at;
  auto& walk = sc.walk;
  walk.clear();
  int v = start;
  while (seen_at[static_cast<std::size_t>(v)] == -1) {
    seen_at[static_cast<std::size_t>(v)] = static_cast<int>(walk.size());
    walk.push_back(v);
    v = local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(v)])].dst;
  }
  sc.cycle.clear();
  for (std::size_t i = static_cast<std::size_t>(seen_at[static_cast<std::size_t>(v)]);
       i < walk.size(); ++i) {
    sc.cycle.push_back(
        local.edges[static_cast<std::size_t>(policy[static_cast<std::size_t>(walk[i])])].place);
  }
  return lambda[static_cast<std::size_t>(v)];
}

/// True when `s` are valid scaled potentials for bound p/q on this SCC:
/// q*w(e) - p + s[dst] - s[src] >= 0 for every local edge. All arithmetic in
/// 128 bits so adversarial token counts cannot overflow the validation.
bool potentials_valid(const LocalScc& local, std::int64_t p, std::int64_t q,
                      const std::vector<std::int64_t>& s) {
  for (const auto& e : local.edges) {
    const __int128 slack = static_cast<__int128>(q) * e.weight - p +
                           s[static_cast<std::size_t>(e.dst)] -
                           s[static_cast<std::size_t>(e.src)];
    if (slack < 0) return false;
  }
  return true;
}

/// Exact potential fallback: Bellman-Ford shortest paths from a virtual
/// source over integer reduced costs c(e) = q*w(e) - p. Every cycle of the
/// SCC has nonnegative total reduced cost (its mean is >= p/q), so the
/// distances stabilize within n passes; s = -dist satisfies the potential
/// inequality by the relaxation fixpoint.
void bellman_ford_potentials(const LocalScc& local, std::int64_t p, std::int64_t q,
                             std::vector<std::int64_t>& s) {
  const auto n = static_cast<std::size_t>(local.n);
  std::vector<__int128> dist;
  reduced_cost_distances(local, p, q, local.n, dist);
  s.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const __int128 val = -dist[v];
    LID_ASSERT(val >= std::numeric_limits<std::int64_t>::min() &&
                   val <= std::numeric_limits<std::int64_t>::max(),
               "bellman_ford_potentials: potential exceeds int64");
    s[v] = static_cast<std::int64_t>(val);
  }
}

/// Cheap structural fingerprint: transition/place counts plus every place's
/// endpoints. Two graphs with equal fingerprints are treated as structurally
/// identical by the workspace (marking is deliberately excluded).
std::uint64_t structure_fingerprint(const MarkedGraph& g) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;  // FNV-1a prime
  };
  mix(static_cast<std::uint64_t>(g.num_transitions()));
  mix(static_cast<std::uint64_t>(g.num_places()));
  const graph::Digraph& s = g.structure();
  for (std::size_t p = 0; p < g.num_places(); ++p) {
    const graph::Edge& e = s.edge(static_cast<EdgeId>(p));
    mix(static_cast<std::uint64_t>(e.src));
    mix(static_cast<std::uint64_t>(e.dst));
  }
  return h;
}

bool min_cycle_mean_howard(const MarkedGraph& g, OracleWorkspace& ws, MeanCycle& out) {
  OracleWorkspace& im = ws;
  const bool reused = im.prepare(g);
  out.cycle.clear();
  bool found = false;
  for (std::size_t i = 0; i < im.locals.size(); ++i) {
    std::vector<int>& policy = im.policies[i];
    const bool warm =
        reused && policy.size() == static_cast<std::size_t>(im.locals[i].n);
    if (!warm) policy.clear();
    (warm ? im.stats.warm_restarts : im.stats.cold_starts) += 1;
    const Rational mean =
        howard_on_scc(im.locals[i], policy, im.scratch, im.stats.improvement_rounds);
    if (!found || mean < out.mean) {
      out.mean = mean;
      std::swap(out.cycle, im.scratch.cycle);
      found = true;
    }
  }
  return found;
}

McmEvidence mcm_evidence(const MarkedGraph& g, OracleWorkspace& ws) {
  OracleWorkspace& im = ws;
  const graph::SccPartition part = graph::scc(g.structure());
  im.rebuild(g, part, structure_fingerprint(g));

  McmEvidence ev;
  ev.component = part.comp_of;
  ev.component_cyclic.assign(static_cast<std::size_t>(part.count), 0);
  ev.lambda.assign(static_cast<std::size_t>(part.count), Rational(1));
  ev.potential.assign(g.num_transitions(), 0);

  HowardScratch& sc = im.scratch;
  std::size_t next_local = 0;  // locals hold the cyclic SCCs in part order
  for (int c = 0; c < part.count; ++c) {
    if (!part.is_cyclic(c, g.structure())) continue;
    ev.component_cyclic[static_cast<std::size_t>(c)] = 1;
    const std::size_t i = next_local++;
    const LocalScc& local = im.locals[i];
    im.stats.cold_starts += 1;
    const Rational mean = howard_on_scc(local, im.policies[i], sc, im.stats.improvement_rounds);
    ev.lambda[static_cast<std::size_t>(c)] = mean;

    // Candidate potentials from Howard's converged value vector (at
    // convergence lambda is uniform across the SCC, so every scaled value
    // already carries the denominator q; the exact fallback leaves stale
    // values behind, caught by the uniformity test), validated in one O(E)
    // pass; Bellman-Ford covers the rest exactly.
    const std::int64_t p = mean.num();
    const std::int64_t q = mean.den();
    std::vector<std::int64_t> s(static_cast<std::size_t>(local.n), 0);
    bool ok = sc.lambda.size() >= static_cast<std::size_t>(local.n) &&
              sc.value_s.size() >= static_cast<std::size_t>(local.n);
    for (int v = 0; ok && v < local.n; ++v) {
      const __int128 val = sc.value_s[static_cast<std::size_t>(v)];
      if (sc.lambda[static_cast<std::size_t>(v)] != mean ||
          val < std::numeric_limits<std::int64_t>::min() ||
          val > std::numeric_limits<std::int64_t>::max()) {
        ok = false;
        break;
      }
      s[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(val);
    }
    if (ok) ok = potentials_valid(local, p, q, s);
    if (!ok) {
      bellman_ford_potentials(local, p, q, s);
      LID_ASSERT(potentials_valid(local, p, q, s),
                 "mcm_evidence: fallback potentials invalid");
    }
    const auto& members = part.members[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < members.size(); ++i) {
      ev.potential[static_cast<std::size_t>(members[i])] = s[i];
    }

    if (!ev.critical || mean < ev.critical->mean) ev.critical = MeanCycle{mean, sc.cycle};
  }
  return ev;
}

std::optional<Rational> min_cycle_mean_karp(const MarkedGraph& g) {
  std::optional<Rational> best;
  const graph::SccPartition part = graph::scc(g.structure());
  for (int c = 0; c < part.count; ++c) {
    if (!part.is_cyclic(c, g.structure())) continue;
    const Rational mean = karp_on_scc(make_local(g, part, c));
    if (!best || mean < *best) best = mean;
  }
  return best;
}

}  // namespace lid::mg::oracle
