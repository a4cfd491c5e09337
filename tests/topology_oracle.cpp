#include "topology_oracle.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "graph/scc.hpp"
#include "util/check.hpp"

namespace lid::graph::topology_oracle {
namespace {

/// Undirected view: for every directed edge id we record both endpoints'
/// incidence. A traversal must not re-use the same edge id it arrived by.
struct UndirectedView {
  struct Incidence {
    NodeId other;
    EdgeId via;
  };
  std::vector<std::vector<Incidence>> adj;

  explicit UndirectedView(const Digraph& g) : adj(g.num_nodes()) {
    for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
      const Edge& edge = g.edge(e);
      if (edge.src == edge.dst) continue;  // self-loops handled separately
      adj[static_cast<std::size_t>(edge.src)].push_back({edge.dst, e});
      adj[static_cast<std::size_t>(edge.dst)].push_back({edge.src, e});
    }
  }
};

/// Hopcroft–Tarjan biconnected components + articulation points, iterative.
struct BccResult {
  /// Each BCC as the set of (directed) edge ids it contains. Self-loops are
  /// excluded (they are trivially directed cycles).
  std::vector<std::vector<EdgeId>> components;
  std::vector<NodeId> articulation;
};

BccResult biconnected_components(const Digraph& g) {
  const UndirectedView view(g);
  const std::size_t n = g.num_nodes();
  BccResult result;

  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> is_articulation(n, 0);
  std::vector<EdgeId> edge_stack;
  int time = 0;

  struct Frame {
    NodeId v;
    EdgeId arrived_via;  // edge used to reach v (kInvalidEdge for roots)
    std::size_t next;    // next incidence index to explore
  };

  for (NodeId root = 0; root < static_cast<NodeId>(n); ++root) {
    if (disc[static_cast<std::size_t>(root)] != -1) continue;
    std::vector<Frame> stack;
    stack.push_back({root, kInvalidEdge, 0});
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = time++;
    int root_children = 0;

    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId v = frame.v;
      const auto vi = static_cast<std::size_t>(v);
      const auto& inc = view.adj[vi];
      if (frame.next < inc.size()) {
        const auto [w, via] = inc[frame.next++];
        const auto wi = static_cast<std::size_t>(w);
        if (via == frame.arrived_via) continue;  // do not re-use the tree edge
        if (disc[wi] == -1) {
          edge_stack.push_back(via);
          disc[wi] = low[wi] = time++;
          if (v == root) ++root_children;
          stack.push_back({w, via, 0});
        } else if (disc[wi] < disc[vi]) {
          // Back edge to an ancestor (or a parallel edge).
          edge_stack.push_back(via);
          low[vi] = std::min(low[vi], disc[wi]);
        }
        continue;
      }
      // v fully explored; fold into parent.
      const EdgeId arrived_via = frame.arrived_via;
      stack.pop_back();  // invalidates `frame`
      if (stack.empty()) break;
      Frame& parent = stack.back();
      const auto pi = static_cast<std::size_t>(parent.v);
      low[pi] = std::min(low[pi], low[vi]);
      if (low[vi] >= disc[pi]) {
        // parent.v closes a biconnected component ending at `arrived_via`.
        std::vector<EdgeId> comp;
        for (;;) {
          LID_ASSERT(!edge_stack.empty(), "BCC edge stack underflow");
          const EdgeId e = edge_stack.back();
          edge_stack.pop_back();
          comp.push_back(e);
          if (e == arrived_via) break;
        }
        result.components.push_back(std::move(comp));
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

/// True when the BCC (given as directed edge ids, ≥2 edges) forms exactly one
/// directed simple cycle.
bool bcc_is_directed_cycle(const Digraph& g, const std::vector<EdgeId>& comp) {
  std::map<NodeId, int> out_count;
  std::map<NodeId, int> in_count;
  for (const EdgeId e : comp) {
    const Edge& edge = g.edge(e);
    ++out_count[edge.src];
    ++in_count[edge.dst];
  }
  if (out_count.size() != comp.size() || in_count.size() != comp.size()) return false;
  for (const auto& [v, c] : out_count) {
    if (c != 1) return false;
    const auto it = in_count.find(v);
    if (it == in_count.end() || it->second != 1) return false;
  }
  // Connectivity within a BCC is guaranteed by construction, and with all
  // in/out degrees equal to one the component is a single directed cycle.
  return true;
}

/// True when every biconnected component is a single edge (a bridge).
bool all_bridges(const BccResult& bcc) {
  return std::all_of(bcc.components.begin(), bcc.components.end(),
                     [](const std::vector<EdgeId>& comp) { return comp.size() == 1; });
}

/// True when some non-bridge biconnected component is not a directed cycle.
bool reconvergent(const Digraph& g, const BccResult& bcc) {
  for (const auto& comp : bcc.components) {
    if (comp.size() == 1) continue;  // bridge
    if (!bcc_is_directed_cycle(g, comp)) return true;
  }
  return false;
}

bool has_self_loop(const Digraph& g) {
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    if (g.edge(e).src == g.edge(e).dst) return true;
  }
  return false;
}

}  // namespace

bool is_underlying_forest(const Digraph& g) {
  // A self-loop is a cycle.
  return !has_self_loop(g) && all_bridges(biconnected_components(g));
}

bool has_reconvergent_paths(const Digraph& g) {
  return reconvergent(g, biconnected_components(g));
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
  return !topology_oracle::has_reconvergent_paths(Digraph(members.size(), std::move(arcs)));
}

TopologyClass classify(const Digraph& g) {
  // One decomposition serves both tests (is_underlying_forest and
  // has_reconvergent_paths).
  const BccResult bcc = biconnected_components(g);
  if (!has_self_loop(g) && all_bridges(bcc)) return TopologyClass::kTree;
  if (reconvergent(g, bcc)) return TopologyClass::kGeneral;
  // Every undirected cycle is a directed cycle: cactus SCCs connected by a
  // forest of inter-SCC edges.
  return is_strongly_connected(g) ? TopologyClass::kCactusScc
                                  : TopologyClass::kNetworkOfCactusSccs;
}

std::vector<NodeId> articulation_points(const Digraph& g) {
  return biconnected_components(g).articulation;
}

}  // namespace lid::graph::topology_oracle
