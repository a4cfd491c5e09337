#include "graph/topology.hpp"

#include <algorithm>

#include "graph/scc.hpp"

namespace lid::graph {
namespace {

/// The underlying undirected multigraph, flat: node v's incidences lie in
/// [begin[v], begin[v + 1]) of `inc`, in edge-id order, each with the
/// neighbour and the directed edge it comes from. Self-loops are left out
/// (they are handled separately). A traversal must not re-use the edge id
/// it arrived by.
struct UndirectedView {
  struct Incidence {
    NodeId other;
    EdgeId via;
  };
  std::vector<int> begin;
  std::vector<Incidence> inc;

  explicit UndirectedView(const Digraph& g) : begin(g.num_nodes() + 1, 0) {
    const auto edges = static_cast<EdgeId>(g.num_edges());
    for (EdgeId e = 0; e < edges; ++e) {
      const Edge& edge = g.edge(e);
      if (edge.src == edge.dst) continue;
      ++begin[static_cast<std::size_t>(edge.src) + 1];
      ++begin[static_cast<std::size_t>(edge.dst) + 1];
    }
    for (std::size_t v = 0; v + 1 < begin.size(); ++v) begin[v + 1] += begin[v];
    inc.resize(static_cast<std::size_t>(begin.back()));
    // Counting sort: begin[v] walks through v's run, then is shifted back.
    for (EdgeId e = 0; e < edges; ++e) {
      const Edge& edge = g.edge(e);
      if (edge.src == edge.dst) continue;
      inc[static_cast<std::size_t>(begin[static_cast<std::size_t>(edge.src)]++)] = {edge.dst, e};
      inc[static_cast<std::size_t>(begin[static_cast<std::size_t>(edge.dst)]++)] = {edge.src, e};
    }
    for (std::size_t v = begin.size() - 1; v > 0; --v) begin[v] = begin[v - 1];
    begin[0] = 0;
  }
};

/// What the topology predicates need from the biconnected components (BCCs).
struct BccSummary {
  bool all_bridges = true;    ///< every BCC is a single edge
  bool reconvergent = false;  ///< some BCC of two or more edges is not a directed cycle
  std::vector<NodeId> articulation;
};

/// Hopcroft–Tarjan biconnected components + articulation points, iterative.
/// Each BCC is checked where it closes, as a run of the edge stack. A BCC
/// of two or more edges is one directed simple cycle exactly when every
/// edge's source has out-degree 1 and in-degree 1 within it and every
/// edge's head has in-degree 1 (it is connected by construction); the
/// per-node counters are reset after each BCC.
BccSummary biconnected_components(const Digraph& g) {
  const UndirectedView view(g);
  const std::size_t n = g.num_nodes();
  BccSummary result;

  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> is_articulation(n, 0);
  std::vector<int> out_count(n, 0);
  std::vector<int> in_count(n, 0);
  std::vector<EdgeId> edge_stack;
  int time = 0;

  const auto is_directed_cycle = [&](std::size_t first) {
    for (std::size_t i = first; i < edge_stack.size(); ++i) {
      const Edge& edge = g.edge(edge_stack[i]);
      ++out_count[static_cast<std::size_t>(edge.src)];
      ++in_count[static_cast<std::size_t>(edge.dst)];
    }
    bool cycle = true;
    for (std::size_t i = first; i < edge_stack.size(); ++i) {
      const Edge& edge = g.edge(edge_stack[i]);
      const auto src = static_cast<std::size_t>(edge.src);
      cycle = cycle && out_count[src] == 1 && in_count[src] == 1 &&
              in_count[static_cast<std::size_t>(edge.dst)] == 1;
    }
    for (std::size_t i = first; i < edge_stack.size(); ++i) {
      const Edge& edge = g.edge(edge_stack[i]);
      out_count[static_cast<std::size_t>(edge.src)] = 0;
      in_count[static_cast<std::size_t>(edge.dst)] = 0;
    }
    return cycle;
  };

  struct Frame {
    NodeId v;
    EdgeId arrived_via;     // edge used to reach v (kInvalidEdge for roots)
    int next;               // next incidence of v to explore
    std::size_t stack_at;   // edge-stack position of arrived_via
  };
  std::vector<Frame> stack;

  for (NodeId root = 0; root < static_cast<NodeId>(n); ++root) {
    if (disc[static_cast<std::size_t>(root)] != -1) continue;
    stack.push_back({root, kInvalidEdge, view.begin[static_cast<std::size_t>(root)], 0});
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = time++;
    int root_children = 0;

    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId v = frame.v;
      const auto vi = static_cast<std::size_t>(v);
      if (frame.next < view.begin[vi + 1]) {
        const auto [w, via] = view.inc[static_cast<std::size_t>(frame.next++)];
        const auto wi = static_cast<std::size_t>(w);
        if (via == frame.arrived_via) continue;  // do not re-use the tree edge
        if (disc[wi] == -1) {
          const std::size_t at = edge_stack.size();
          edge_stack.push_back(via);
          disc[wi] = low[wi] = time++;
          if (v == root) ++root_children;
          stack.push_back({w, via, view.begin[wi], at});  // invalidates `frame`
        } else if (disc[wi] < disc[vi]) {
          // Back edge to an ancestor (or a parallel edge).
          edge_stack.push_back(via);
          low[vi] = std::min(low[vi], disc[wi]);
        }
        continue;
      }
      // v fully explored; fold into parent.
      const std::size_t stack_at = frame.stack_at;
      stack.pop_back();  // invalidates `frame`
      if (stack.empty()) break;
      Frame& parent = stack.back();
      const auto pi = static_cast<std::size_t>(parent.v);
      low[pi] = std::min(low[pi], low[vi]);
      if (low[vi] >= disc[pi]) {
        // parent.v closes a biconnected component: the edge stack from the
        // tree edge into v up (a bridge when that is the only edge).
        LID_ASSERT(stack_at < edge_stack.size(), "BCC edge stack underflow");
        if (edge_stack.size() - stack_at > 1) {
          result.all_bridges = false;
          if (!result.reconvergent && !is_directed_cycle(stack_at)) result.reconvergent = true;
        }
        edge_stack.resize(stack_at);
        if (parent.v != root) is_articulation[pi] = 1;
      }
    }
    if (root_children >= 2) is_articulation[static_cast<std::size_t>(root)] = 1;
  }

  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (is_articulation[static_cast<std::size_t>(v)]) result.articulation.push_back(v);
  }
  return result;
}

bool has_self_loop(const Digraph& g) {
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    if (g.edge(e).src == g.edge(e).dst) return true;
  }
  return false;
}

}  // namespace

const char* to_string(TopologyClass c) {
  switch (c) {
    case TopologyClass::kTree:
      return "tree";
    case TopologyClass::kCactusScc:
      return "cactus-scc";
    case TopologyClass::kNetworkOfCactusSccs:
      return "network-of-cactus-sccs";
    case TopologyClass::kGeneral:
      return "general";
  }
  return "unknown";
}

bool is_underlying_forest(const Digraph& g) {
  // A self-loop is a cycle.
  return !has_self_loop(g) && biconnected_components(g).all_bridges;
}

bool has_reconvergent_paths(const Digraph& g) {
  return biconnected_components(g).reconvergent;
}

bool scc_is_cactus(const Digraph& g, const std::vector<NodeId>& members) {
  LID_ENSURE(!members.empty(), "scc_is_cactus: empty SCC");
  // Build the induced subgraph over `members`.
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < members.size(); ++i) {
    remap[static_cast<std::size_t>(members[i])] = static_cast<NodeId>(i);
  }
  std::vector<Edge> arcs;
  for (const NodeId v : members) {
    for (const EdgeId e : g.out_edges(v)) {
      const NodeId w = g.edge(e).dst;
      if (remap[static_cast<std::size_t>(w)] != kInvalidNode) {
        arcs.push_back(
            Edge{remap[static_cast<std::size_t>(v)], remap[static_cast<std::size_t>(w)]});
      }
    }
  }
  return !has_reconvergent_paths(Digraph(members.size(), std::move(arcs)));
}

TopologyClass classify(const Digraph& g) {
  // One decomposition serves both tests (is_underlying_forest and
  // has_reconvergent_paths).
  const BccSummary bcc = biconnected_components(g);
  if (!has_self_loop(g) && bcc.all_bridges) return TopologyClass::kTree;
  if (bcc.reconvergent) return TopologyClass::kGeneral;
  // Every undirected cycle is a directed cycle: cactus SCCs connected by a
  // forest of inter-SCC edges.
  return is_strongly_connected(g) ? TopologyClass::kCactusScc
                                  : TopologyClass::kNetworkOfCactusSccs;
}

std::vector<NodeId> articulation_points(const Digraph& g) {
  return biconnected_components(g).articulation;
}

}  // namespace lid::graph
