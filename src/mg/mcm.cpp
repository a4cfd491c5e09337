#include "mg/mcm.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "mg/mcm_kernel.hpp"
#include "util/check.hpp"

namespace lid::mg {
namespace kernel {
namespace {

using util::Rational;

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/// Bellman-Ford from a virtual source joined to every node at cost 0, over
/// the integer reduced costs q*w(e) - p, for at most `passes` passes into
/// `dist`. True once a pass relaxes nothing (the distances have settled).
bool reduced_cost_distances(const SccView& view, __int128 p, std::int64_t q, int passes,
                            std::vector<__int128>& dist) {
  dist.assign(static_cast<std::size_t>(view.n), 0);
  for (int pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (int u = 0; u < view.n; ++u) {
      const __int128 base = dist[static_cast<std::size_t>(u)];
      for (int e = view.offset[static_cast<std::size_t>(u)];
           e < view.offset[static_cast<std::size_t>(u) + 1]; ++e) {
        const __int128 cand =
            base + static_cast<__int128>(q) * view.weight[static_cast<std::size_t>(e)] - p;
        __int128& cell = dist[static_cast<std::size_t>(view.dst[static_cast<std::size_t>(e)])];
        if (cand < cell) {
          cell = cand;
          changed = true;
        }
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

/// a/b < c/d for positive denominators, exactly.
bool mean_less(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d) {
  return static_cast<__int128>(a) * d < static_cast<__int128>(c) * b;
}

}  // namespace

std::vector<int> local_ids(const graph::SccPartition& part) {
  std::vector<int> local_of(part.comp_of.size(), -1);
  for (const auto& members : part.members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      local_of[static_cast<std::size_t>(members[i])] = static_cast<int>(i);
    }
  }
  return local_of;
}

SccView make_view(const MarkedGraph& g, const graph::SccPartition& part,
                  const std::vector<int>& local_of, int comp) {
  const auto& members = part.members[static_cast<std::size_t>(comp)];
  const graph::Digraph& s = g.structure();
  const auto internal = [&](graph::EdgeId e) {
    return part.comp_of[static_cast<std::size_t>(s.edge(e).dst)] == comp;
  };
  SccView view;
  view.n = static_cast<int>(members.size());
  view.offset.assign(members.size() + 1, 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    int degree = 0;
    for (const graph::EdgeId e : s.out_edges(members[i])) degree += internal(e) ? 1 : 0;
    view.offset[i + 1] = view.offset[i] + degree;
  }
  const auto edges = static_cast<std::size_t>(view.offset.back());
  view.dst.resize(edges);
  view.weight.resize(edges);
  view.place.resize(edges);
  std::size_t next = 0;
  for (const graph::NodeId v : members) {
    for (const graph::EdgeId e : s.out_edges(v)) {
      if (!internal(e)) continue;
      view.dst[next] = local_of[static_cast<std::size_t>(s.edge(e).dst)];
      view.weight[next] = g.tokens(e);
      view.place[next] = e;
      ++next;
    }
  }
  return view;
}

void refresh_weights(SccView& view, const MarkedGraph& g) {
  for (std::size_t e = 0; e < view.place.size(); ++e) view.weight[e] = g.tokens(view.place[e]);
}

Rational HowardScratch::lambda(int v) const {
  const auto c = static_cast<std::size_t>(cycle_of[static_cast<std::size_t>(v)]);
  return Rational(mean_num[c], mean_den[c]);
}

bool HowardScratch::lambda_is(int v, const Rational& mean) const {
  const auto c = static_cast<std::size_t>(cycle_of[static_cast<std::size_t>(v)]);
  return mean_num[c] == mean.num() && mean_den[c] == mean.den();
}

Rational karp(const SccView& view) {
  const int n = view.n;
  LID_ASSERT(n >= 1, "karp: empty SCC");
  // d[k*n + v] = min weight of a walk with exactly k edges from node 0 to v.
  const auto ns = static_cast<std::size_t>(n);
  std::vector<std::int64_t> d((ns + 1) * ns, kInf);
  const auto at = [&](int k, int v) -> std::int64_t& {
    return d[static_cast<std::size_t>(k) * ns + static_cast<std::size_t>(v)];
  };
  at(0, 0) = 0;
  for (int k = 1; k <= n; ++k) {
    for (int u = 0; u < n; ++u) {
      const std::int64_t base = at(k - 1, u);
      if (base == kInf) continue;
      for (int e = view.offset[static_cast<std::size_t>(u)];
           e < view.offset[static_cast<std::size_t>(u) + 1]; ++e) {
        std::int64_t& cell = at(k, view.dst[static_cast<std::size_t>(e)]);
        cell = std::min(cell, base + view.weight[static_cast<std::size_t>(e)]);
      }
    }
  }

  bool found = false;
  Rational best;
  for (int v = 0; v < n; ++v) {
    const std::int64_t dn = at(n, v);
    if (dn == kInf) continue;
    bool have_term = false;
    Rational worst;
    for (int k = 0; k < n; ++k) {
      const std::int64_t dk = at(k, v);
      if (dk == kInf) continue;
      const Rational term(dn - dk, n - k);
      if (!have_term || term > worst) {
        worst = term;
        have_term = true;
      }
    }
    LID_ASSERT(have_term, "karp: no finite prefix for a reachable node");
    if (!found || worst < best) {
      best = worst;
      found = true;
    }
  }
  LID_ASSERT(found, "karp: strongly connected component without a cycle");
  return best;
}

Rational parametric(const SccView& view) {
  std::int64_t wmax = 0;
  for (const std::int64_t w : view.weight) wmax = std::max(wmax, w);
  // Bracket invariant: no cycle mean < lo, some cycle mean < hi, with
  // lo = num_lo / 2^k and hi = num_hi / 2^k. Token weights are nonnegative,
  // so 0 is a valid lower bound; wmax + 1 exceeds every cycle mean. Time is
  // O(V*E*log(n*W)) — acceptable only on the policy-iteration paranoia
  // path, where Karp's O(V^2) table would not fit in memory.
  __int128 num_lo = 0;
  __int128 num_hi = wmax + 1;
  std::int64_t q = 1;  // common denominator 2^k
  const __int128 n2 = static_cast<__int128>(view.n) * view.n;
  std::vector<__int128> dist;
  while ((num_hi - num_lo) * n2 >= q) {
    const __int128 mid = num_lo + num_hi;  // over denominator 2^(k+1)
    LID_ASSERT(q <= std::numeric_limits<std::int64_t>::max() / 2,
               "parametric: bisection denominator exceeds int64");
    q *= 2;
    // Some cycle has mean below mid/q exactly when a negative reduced-cost
    // cycle keeps the distances from settling within n + 1 passes.
    if (!reduced_cost_distances(view, mid, q, view.n + 1, dist)) {
      num_hi = mid;
      num_lo *= 2;
    } else {
      num_lo = mid;
      num_hi *= 2;
    }
  }
  const Rational mu = simplest_between(num_lo, q, num_hi, q);
  LID_ASSERT(mu.den() <= view.n, "parametric: recovered mean has an impossible denominator");
  return mu;
}

Rational exact_fallback_cycle(const SccView& view, std::vector<PlaceId>& cycle_out) {
  const Rational mu = view.n <= kKarpTableMaxNodes ? karp(view) : parametric(view);
  const std::int64_t p = mu.num();
  const std::int64_t q = mu.den();
  std::vector<__int128> dist;
  reduced_cost_distances(view, p, q, view.n, dist);
  // Tight edges: dist[dst] == dist[src] + q*w - p. Around a critical cycle
  // all inequalities hold with equality, so the tight subgraph contains a
  // cycle, and every cycle of the tight subgraph has reduced cost 0, i.e.
  // mean μ.
  std::vector<graph::Edge> tight_arcs;
  std::vector<int> tight_origin;  // tight-graph edge -> view edge
  for (int u = 0; u < view.n; ++u) {
    for (int e = view.offset[static_cast<std::size_t>(u)];
         e < view.offset[static_cast<std::size_t>(u) + 1]; ++e) {
      const int w = view.dst[static_cast<std::size_t>(e)];
      if (dist[static_cast<std::size_t>(w)] ==
          dist[static_cast<std::size_t>(u)] +
              static_cast<__int128>(q) * view.weight[static_cast<std::size_t>(e)] - p) {
        tight_arcs.push_back(graph::Edge{u, w});
        tight_origin.push_back(e);
      }
    }
  }
  cycle_out.clear();
  const graph::Digraph tight_graph(static_cast<std::size_t>(view.n), std::move(tight_arcs));
  for (const graph::EdgeId te : graph::find_cycle(tight_graph)) {
    cycle_out.push_back(
        view.place[static_cast<std::size_t>(tight_origin[static_cast<std::size_t>(te)])]);
  }
  LID_ASSERT(!cycle_out.empty(), "exact_fallback_cycle: tight subgraph has no cycle");
  return mu;
}

Rational howard(const SccView& view, std::vector<int>& policy, HowardScratch& sc,
                WorkspaceStats& stats) {
  const int n = view.n;
  const auto ns = static_cast<std::size_t>(n);
  const int* const offset = view.offset.data();
  const int* const dst = view.dst.data();
  const std::int64_t* const weight = view.weight.data();
  if (policy.size() != ns) {
    policy.assign(ns, -1);
    for (int v = 0; v < n; ++v) {
      LID_ASSERT(offset[v] < offset[v + 1], "howard: SCC node without internal out-edge");
      int best = offset[v];
      for (int e = offset[v]; e < offset[v + 1]; ++e) {
        if (weight[e] < weight[best]) best = e;
      }
      policy[static_cast<std::size_t>(v)] = best;
    }
  }
  int* const pol = policy.data();

  // A full round writes every entry before any is read.
  sc.cycle_of.resize(ns);
  sc.rank.resize(ns);
  sc.value_s.resize(ns);
  sc.cycle_stamp.resize(ns);  // which walk of the round visited the node
  sc.evaluated.resize(ns);
  int* const cycle_of = sc.cycle_of.data();
  int* const rank = sc.rank.data();
  __int128* const value_s = sc.value_s.data();
  int* const cycle_stamp = sc.cycle_stamp.data();
  char* const evaluated = sc.evaluated.data();

  // Incremental rounds find a node's policy children and predecessors
  // through a reverse index: the source node of every edge, grouped by head.
  // Node p is a policy child of u when dst[pol[p]] == u. Built when a solve
  // first needs a second round, released with the round lists at its end.
  const auto build_reverse_index = [&] {
    sc.rev_offset.assign(ns + 1, 0);
    sc.rev_src.resize(view.dst.size());
    int* const next = sc.rev_offset.data();
    for (int e = 0; e < view.num_edges(); ++e) ++next[dst[e] + 1];
    for (int v = 0; v < n; ++v) next[v + 1] += next[v];
    for (int u = 0; u < n; ++u) {
      for (int e = offset[u]; e < offset[u + 1]; ++e) {
        sc.rev_src[static_cast<std::size_t>(next[dst[e]]++)] = u;
      }
    }
    // next[v] now ends v's run, which is where v + 1's starts.
    for (int v = n; v > 0; --v) next[v] = next[v - 1];
    next[0] = 0;
    sc.flag.assign(ns, 0);
  };
  const int* rev_offset = nullptr;
  const int* rev_src = nullptr;
  char* flag = nullptr;
  const bool incremental = n >= kIncrementalMinNodes;
  constexpr char kInExam = 1;
  constexpr char kPending = 2;

  // Values of a policy tree are scaled by its root cycle's mean p/q, so
  // value[v] = value_s[v] / q exactly; each policy cycle is anchored at its
  // minimum node id (a deterministic anchor keeps values comparable across
  // rounds, which phase-2 termination relies on, and makes a node's value
  // depend on its own chain and cycle only). Follows the policy from
  // `start` until it reaches an evaluated node or revisits a node of this
  // walk (a fresh policy cycle, appended to the cycle table), then
  // evaluates the chain backwards.
  int walk = 0;
  const auto evaluate_from = [&](int start) {
    if (evaluated[start]) return;
    auto& chain = sc.chain;
    chain.clear();
    int v = start;
    while (!evaluated[v] && cycle_stamp[v] != walk) {
      cycle_stamp[v] = walk;
      chain.push_back(v);
      v = dst[pol[v]];
    }
    if (!evaluated[v]) {
      std::int64_t tokens = 0;
      std::int64_t length = 0;
      auto& cyc = sc.cyc;
      cyc.clear();
      int u = v;
      do {
        tokens += weight[pol[u]];
        ++length;
        cyc.push_back(u);
        u = dst[pol[u]];
      } while (u != v);
      const Rational mean(tokens, length);
      const int c = static_cast<int>(sc.mean_num.size());
      sc.mean_num.push_back(mean.num());
      sc.mean_den.push_back(mean.den());
      std::rotate(cyc.begin(), std::min_element(cyc.begin(), cyc.end()), cyc.end());
      const int anchor = cyc.front();
      cycle_of[anchor] = c;
      value_s[anchor] = 0;
      evaluated[anchor] = 1;
      const std::int64_t p = mean.num();
      const std::int64_t q = mean.den();
      for (std::size_t i = cyc.size(); i-- > 1;) {
        const int node = cyc[i];
        const int e = pol[node];
        cycle_of[node] = c;
        value_s[node] = static_cast<__int128>(q) * weight[e] - p + value_s[dst[e]];
        evaluated[node] = 1;
      }
    }
    // Chain nodes before `v` inherit v's cycle and its denominator.
    for (std::size_t i = chain.size(); i-- > 0;) {
      const int node = chain[i];
      if (evaluated[node]) continue;
      const int e = pol[node];
      const int c = cycle_of[dst[e]];
      const auto ci = static_cast<std::size_t>(c);
      cycle_of[node] = c;
      value_s[node] = static_cast<__int128>(sc.mean_den[ci]) * weight[e] - sc.mean_num[ci] +
                      value_s[dst[e]];
      evaluated[node] = 1;
    }
    ++walk;
  };

  // Dense ranks over the distinct means of the cycle table (equal means,
  // equal ranks; a smaller mean, a smaller rank), counted down from round
  // 1's largest mean. Cycles from `old_cycles` on are new, and after round 1
  // each lies below every mean in the table. Phase 1 closes no cycle: along
  // a new policy cycle the old ranks would never rise and would fall at
  // each switched node. Phase 2 runs only when no node has a lower-ranked
  // successor, so in a strongly connected view every node then shares the
  // table's smallest mean, and a cycle closed by strict value improvements
  // lies below it. So new cycles rank below the old ones, and no old rank
  // moves.
  int lowest = -1;  // a cycle of the table's smallest mean
  const auto rank_new_cycles = [&](std::size_t old_cycles) {
    const std::size_t cycles = sc.mean_num.size();
    const std::int64_t* const num = sc.mean_num.data();
    const std::int64_t* const den = sc.mean_den.data();
    auto& order = sc.order;
    order.resize(cycles - old_cycles);
    std::iota(order.begin(), order.end(), static_cast<int>(old_cycles));
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return mean_less(num[a], den[a], num[b], den[b]); });
    sc.cycle_rank.resize(cycles);
    int* const cycle_rank = sc.cycle_rank.data();
    int r = 0;
    if (old_cycles > 0) {
      const int top = order.back();
      LID_ASSERT(mean_less(num[top], den[top], num[lowest], den[lowest]),
                 "howard: a new policy cycle does not lie below every earlier one");
      r = cycle_rank[lowest] - 1;
    }
    for (std::size_t i = order.size(); i-- > 0;) {
      const int c = order[i];
      if (i + 1 < order.size()) {
        const int above = order[i + 1];
        if (num[c] != num[above] || den[c] != den[above]) --r;
      }
      cycle_rank[c] = r;
    }
    lowest = order.front();
  };

  // Phase 1 on node v: switch to the first successor whose policy cycle has
  // a strictly smaller mean. Phase 2: same-mean value improvement;
  // candidates share v's rank, so every compared value shares one
  // denominator and compares directly. Both read only v's and its
  // successors' cycles and values, so a pass decides every node
  // independently of the others' switches; when rounds are incremental, a
  // switched node joins `dirty`.
  auto& dirty = sc.dirty;
  bool switched = false;
  const auto improve_mean = [&](int v) {
    int best = pol[v];
    int best_rank = rank[dst[best]];
    for (int e = offset[v]; e < offset[v + 1]; ++e) {
      const int r = rank[dst[e]];
      if (r < best_rank) {
        best = e;
        best_rank = r;
      }
    }
    if (best != pol[v]) {
      pol[v] = best;
      switched = true;
      if (incremental) dirty.push_back(v);
    }
  };
  const auto improve_value = [&](int v) {
    const auto c = static_cast<std::size_t>(cycle_of[v]);
    const std::int64_t p = sc.mean_num[c];
    const std::int64_t q = sc.mean_den[c];
    const int rv = rank[v];
    int best = pol[v];
    __int128 best_value = static_cast<__int128>(q) * weight[best] - p + value_s[dst[best]];
    for (int e = offset[v]; e < offset[v + 1]; ++e) {
      if (rank[dst[e]] != rv) continue;
      const __int128 cand = static_cast<__int128>(q) * weight[e] - p + value_s[dst[e]];
      if (cand < best_value) {
        best = e;
        best_value = cand;
      }
    }
    if (best_value < value_s[v]) {
      pol[v] = best;
      switched = true;
      if (incremental) dirty.push_back(v);
    }
  };

  // Round 1 (every round on a small component) is a full pass. After it a
  // round re-evaluates the switched nodes' subtrees in the new policy
  // forest: every other node's chain and cycle, hence its value, are
  // unchanged. Phase 1 re-examines the re-evaluated nodes and their
  // predecessors, phase 2 the nodes phase 1 listed since phase 2's last
  // pass: any other node's inputs are those it last decided on, unswitched.
  auto& exam = sc.exam;
  auto& pending = sc.pending;
  const auto list = [&](int v) {
    if ((flag[v] & kInExam) == 0) {
      flag[v] |= kInExam;
      exam.push_back(v);
    }
  };
  dirty.clear();
  pending.clear();
  bool pending_all = true;  // phase 2 has not run a pass in this solve
  const std::int64_t max_iterations = howard_round_cap(n);
  bool converged = false;
  for (std::int64_t iter = 0; iter < max_iterations; ++iter) {
    // A full round evaluates and examines every node (no list); an
    // incremental one the nodes in `dirty` and `exam`.
    const bool full = iter == 0 || !incremental;
    std::size_t old_cycles = 0;
    if (full) {
      sc.mean_num.clear();
      sc.mean_den.clear();
      std::fill(evaluated, evaluated + n, 0);
      std::fill(cycle_stamp, cycle_stamp + n, -1);
    } else {
      if (iter == 1) {
        build_reverse_index();
        rev_offset = sc.rev_offset.data();
        rev_src = sc.rev_src.data();
        flag = sc.flag.data();
      }
      // `dirty` holds the switched nodes; one walk adds their subtrees and
      // lists them and their predecessors for phase 1.
      old_cycles = sc.mean_num.size();
      exam.clear();
      for (const int v : dirty) {
        evaluated[v] = 0;
        cycle_stamp[v] = -1;
      }
      for (std::size_t i = 0; i < dirty.size(); ++i) {
        const int u = dirty[i];
        list(u);
        for (int k = rev_offset[u]; k < rev_offset[u + 1]; ++k) {
          const int p = rev_src[k];
          list(p);
          if (evaluated[p] && dst[pol[p]] == u) {
            evaluated[p] = 0;
            cycle_stamp[p] = -1;
            dirty.push_back(p);
          }
        }
      }
    }
    const int* const eval_ids = full ? nullptr : dirty.data();
    const int evals = full ? n : static_cast<int>(dirty.size());
    walk = 0;
    for (int i = 0; i < evals; ++i) evaluate_from(eval_ids != nullptr ? eval_ids[i] : i);
    stats.node_evaluations += evals;
    // Old cycles keep their ranks, so only re-evaluated nodes' ranks move.
    if (sc.mean_num.size() > old_cycles) rank_new_cycles(old_cycles);
    const int* const cycle_rank = sc.cycle_rank.data();
    for (int i = 0; i < evals; ++i) {
      const int v = eval_ids != nullptr ? eval_ids[i] : i;
      rank[v] = cycle_rank[cycle_of[v]];
    }
    ++stats.improvement_rounds;

    const int* const exam_ids = full ? nullptr : exam.data();
    const int exams = full ? n : static_cast<int>(exam.size());
    dirty.clear();
    switched = false;
    for (int i = 0; i < exams; ++i) improve_mean(exam_ids != nullptr ? exam_ids[i] : i);
    stats.node_examinations += exams;
    if (full) {
      pending_all = true;
    } else {
      for (const int v : exam) {
        flag[v] &= ~kInExam;
        if (!pending_all && (flag[v] & kPending) == 0) {
          flag[v] |= kPending;
          pending.push_back(v);
        }
      }
    }
    if (switched) continue;

    const int* const pending_ids = pending_all ? nullptr : pending.data();
    const int pendings = pending_all ? n : static_cast<int>(pending.size());
    for (int i = 0; i < pendings; ++i) improve_value(pending_ids != nullptr ? pending_ids[i] : i);
    stats.node_examinations += pendings;
    for (const int v : pending) flag[v] &= ~kPending;
    pending.clear();
    pending_all = !incremental;
    if (!switched) {
      converged = true;
      break;
    }
  }
  if (rev_offset != nullptr) {
    // A workspace kept between solves holds only what full passes need.
    std::vector<int>().swap(sc.rev_offset);
    std::vector<int>().swap(sc.rev_src);
    std::vector<int>().swap(sc.dirty);
    std::vector<int>().swap(sc.exam);
    std::vector<int>().swap(sc.pending);
    std::vector<char>().swap(sc.flag);
  }
  if (!converged) {
    // Degenerate tie structures can make multichain policy iteration cycle;
    // fall back to an always-exact mean with a tight-subgraph cycle
    // extraction (Bellman-Ford potentials; edges tight at the optimum form a
    // subgraph that must contain a critical cycle).
    return exact_fallback_cycle(view, sc.cycle);
  }

  // Extract the critical policy cycle: walk the policy from the first node
  // of minimal rank until a node repeats, then emit the cycle portion.
  int start = 0;
  for (int v = 1; v < n; ++v) {
    if (rank[v] < rank[start]) start = v;
  }
  sc.seen_at.assign(ns, -1);
  auto& seen_at = sc.seen_at;
  auto& walk_nodes = sc.walk;
  walk_nodes.clear();
  int v = start;
  while (seen_at[static_cast<std::size_t>(v)] == -1) {
    seen_at[static_cast<std::size_t>(v)] = static_cast<int>(walk_nodes.size());
    walk_nodes.push_back(v);
    v = dst[pol[v]];
  }
  sc.cycle.clear();
  for (std::size_t i = static_cast<std::size_t>(seen_at[static_cast<std::size_t>(v)]);
       i < walk_nodes.size(); ++i) {
    sc.cycle.push_back(view.place[static_cast<std::size_t>(pol[walk_nodes[i]])]);
  }
  return sc.lambda(v);
}

bool potentials_valid(const SccView& view, std::int64_t p, std::int64_t q,
                      const std::vector<std::int64_t>& s) {
  for (int u = 0; u < view.n; ++u) {
    for (int e = view.offset[static_cast<std::size_t>(u)];
         e < view.offset[static_cast<std::size_t>(u) + 1]; ++e) {
      const __int128 slack =
          static_cast<__int128>(q) * view.weight[static_cast<std::size_t>(e)] - p +
          s[static_cast<std::size_t>(view.dst[static_cast<std::size_t>(e)])] -
          s[static_cast<std::size_t>(u)];
      if (slack < 0) return false;
    }
  }
  return true;
}

void bellman_ford_potentials(const SccView& view, std::int64_t p, std::int64_t q,
                             std::vector<std::int64_t>& s) {
  // Every cycle has nonnegative total reduced cost (its mean is >= p/q), so
  // the distances settle within n passes; s = -dist satisfies the potential
  // inequality by the relaxation fixpoint.
  const auto n = static_cast<std::size_t>(view.n);
  std::vector<__int128> dist;
  reduced_cost_distances(view, p, q, view.n, dist);
  s.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const __int128 val = -dist[v];
    LID_ASSERT(val >= std::numeric_limits<std::int64_t>::min() &&
                   val <= std::numeric_limits<std::int64_t>::max(),
               "bellman_ford_potentials: potential exceeds int64");
    s[v] = static_cast<std::int64_t>(val);
  }
}

}  // namespace kernel

namespace {

using graph::EdgeId;
using util::Rational;

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

/// θ from a graph's minimum-mean cycle (none when the graph is acyclic).
Rational mst_of(const std::optional<MeanCycle>& critical) {
  const Rational theta = critical ? Rational::min(Rational(1), critical->mean) : Rational(1);
  LID_ENSURE(theta.num() != 0, "mst: token-free cycle (deadlocked marked graph)");
  return theta;
}

}  // namespace

struct WorkspaceImpl {
  bool valid = false;
  std::uint64_t fingerprint = 0;
  std::vector<kernel::SccView> views;      // cyclic SCCs, in scc() order
  std::vector<std::vector<int>> policies;  // last policy per view
  kernel::HowardScratch scratch;
  WorkspaceStats stats;

  /// Points the cached views at `g`: true when the previous structure matched
  /// and only edge weights needed refreshing, false after a full rebuild.
  bool prepare(const MarkedGraph& g) {
    const std::uint64_t fp = structure_fingerprint(g);
    if (valid && fp == fingerprint) {
      for (kernel::SccView& view : views) kernel::refresh_weights(view, g);
      return true;
    }
    rebuild(g, graph::scc(g.structure()), fp);
    return false;
  }

  /// Caches `g`'s cyclic SCCs (in `part` order) with no policy: solves start cold.
  void rebuild(const MarkedGraph& g, const graph::SccPartition& part, std::uint64_t fp) {
    views.clear();
    policies.clear();
    const std::vector<int> local_of = kernel::local_ids(part);
    for (int c = 0; c < part.count; ++c) {
      if (!part.is_cyclic(c, g.structure())) continue;
      views.push_back(kernel::make_view(g, part, local_of, c));
    }
    policies.resize(views.size());
    fingerprint = fp;
    valid = true;
  }
};

Workspace::Workspace() : impl_(std::make_unique<WorkspaceImpl>()) {}
Workspace::~Workspace() = default;
Workspace::Workspace(Workspace&&) noexcept = default;
Workspace& Workspace::operator=(Workspace&&) noexcept = default;

const WorkspaceStats& Workspace::stats() const { return impl_->stats; }

bool min_cycle_mean_howard(const MarkedGraph& g, Workspace& ws, MeanCycle& out) {
  WorkspaceImpl& im = *ws.impl_;
  const bool reused = im.prepare(g);
  out.cycle.clear();
  bool found = false;
  for (std::size_t i = 0; i < im.views.size(); ++i) {
    std::vector<int>& policy = im.policies[i];
    const bool warm = reused && policy.size() == static_cast<std::size_t>(im.views[i].n);
    if (!warm) policy.clear();
    (warm ? im.stats.warm_restarts : im.stats.cold_starts) += 1;
    const Rational mean =
        kernel::howard(im.views[i], policy, im.scratch, im.stats);
    if (!found || mean < out.mean) {
      out.mean = mean;
      std::swap(out.cycle, im.scratch.cycle);
      found = true;
    }
  }
  return found;
}

McmEvidence mcm_evidence(const MarkedGraph& g, Workspace& ws) {
  WorkspaceImpl& im = *ws.impl_;
  const graph::SccPartition part = graph::scc(g.structure());
  im.rebuild(g, part, structure_fingerprint(g));

  McmEvidence ev;
  ev.component = part.comp_of;
  ev.component_cyclic.assign(static_cast<std::size_t>(part.count), 0);
  ev.lambda.assign(static_cast<std::size_t>(part.count), Rational(1));
  ev.potential.assign(g.num_transitions(), 0);

  kernel::HowardScratch& sc = im.scratch;
  std::size_t next_view = 0;  // views hold the cyclic SCCs in part order
  std::vector<std::int64_t> s;
  for (int c = 0; c < part.count; ++c) {
    if (!part.is_cyclic(c, g.structure())) continue;
    ev.component_cyclic[static_cast<std::size_t>(c)] = 1;
    const std::size_t i = next_view++;
    const kernel::SccView& view = im.views[i];
    im.stats.cold_starts += 1;
    const Rational mean = kernel::howard(view, im.policies[i], sc, im.stats);
    ev.lambda[static_cast<std::size_t>(c)] = mean;

    // Candidate potentials from Howard's converged value vector (at
    // convergence λ is uniform across the SCC, so every scaled value
    // already carries the denominator q; the exact fallback leaves stale
    // values behind, caught by the uniformity test), validated in one O(E)
    // pass; Bellman-Ford covers the rest exactly.
    const std::int64_t p = mean.num();
    const std::int64_t q = mean.den();
    s.assign(static_cast<std::size_t>(view.n), 0);
    bool ok = true;
    for (int v = 0; v < view.n; ++v) {
      const __int128 val = sc.value_s[static_cast<std::size_t>(v)];
      if (!sc.lambda_is(v, mean) || val < std::numeric_limits<std::int64_t>::min() ||
          val > std::numeric_limits<std::int64_t>::max()) {
        ok = false;
        break;
      }
      s[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(val);
    }
    if (ok) ok = kernel::potentials_valid(view, p, q, s);
    if (!ok) {
      kernel::bellman_ford_potentials(view, p, q, s);
      LID_ASSERT(kernel::potentials_valid(view, p, q, s),
                 "mcm_evidence: fallback potentials invalid");
    }
    const auto& members = part.members[static_cast<std::size_t>(c)];
    for (std::size_t m = 0; m < members.size(); ++m) {
      ev.potential[static_cast<std::size_t>(members[m])] = s[m];
    }

    if (!ev.critical || mean < ev.critical->mean) ev.critical = MeanCycle{mean, sc.cycle};
  }
  return ev;
}

McmEvidence mcm_evidence(const MarkedGraph& g) {
  Workspace ws;
  return mcm_evidence(g, ws);
}

Rational mst(const McmEvidence& evidence) { return mst_of(evidence.critical); }

std::optional<Rational> min_cycle_mean_karp(const MarkedGraph& g) {
  std::optional<Rational> best;
  const graph::SccPartition part = graph::scc(g.structure());
  const std::vector<int> local_of = kernel::local_ids(part);
  for (int c = 0; c < part.count; ++c) {
    if (!part.is_cyclic(c, g.structure())) continue;
    const Rational mean = kernel::karp(kernel::make_view(g, part, local_of, c));
    if (!best || mean < *best) best = mean;
  }
  return best;
}

std::optional<MeanCycle> min_cycle_mean_howard(const MarkedGraph& g) {
  // One-shot path: a throwaway workspace still pools scratch + the cycle
  // buffer across the graph's SCCs instead of reallocating per component.
  Workspace ws;
  MeanCycle out;
  if (!min_cycle_mean_howard(g, ws, out)) return std::nullopt;
  return out;
}

Rational mst(const MarkedGraph& g) {
  // Howard, not Karp: Karp's per-SCC walk table is O(V^2) memory, which is
  // prohibitive on the single giant SCC every doubled graph d[G] collapses
  // into (the backward places make d[G] symmetric). Karp stays available via
  // min_cycle_mean_karp as an independent small-instance cross-check.
  return mst_of(min_cycle_mean_howard(g));
}

}  // namespace lid::mg
