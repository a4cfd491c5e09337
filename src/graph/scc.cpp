#include "graph/scc.hpp"

#include <algorithm>

namespace lid::graph {

bool SccPartition::is_cyclic(int c, const Digraph& g) const {
  LID_ENSURE(c >= 0 && c < count, "component index out of range");
  const auto& nodes = members[static_cast<std::size_t>(c)];
  if (nodes.size() > 1) return true;
  // Single node: cyclic iff it has a self-loop.
  const NodeId v = nodes.front();
  for (const EdgeId e : g.out_edges(v)) {
    if (g.edge(e).dst == v) return true;
  }
  return false;
}

SccPartition scc(const Digraph& g) {
  const std::size_t n = g.num_nodes();
  SccPartition part;
  part.comp_of.assign(n, -1);

  // Iterative Tarjan. `index` and `lowlink` per node; `on_stack` flags.
  std::vector<int> index(n, -1);
  std::vector<int> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<NodeId> stack;
  int next_index = 0;

  struct Frame {
    NodeId v;
    std::size_t next_out;  // index into out_edges(v)
  };
  std::vector<Frame> call_stack;

  for (NodeId root = 0; root < static_cast<NodeId>(n); ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    call_stack.push_back({root, 0});
    index[static_cast<std::size_t>(root)] = lowlink[static_cast<std::size_t>(root)] = next_index++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = 1;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const NodeId v = frame.v;
      const auto outs = g.out_edges(v);
      if (frame.next_out < outs.size()) {
        const NodeId w = g.edge(outs[frame.next_out++]).dst;
        const auto wi = static_cast<std::size_t>(w);
        if (index[wi] == -1) {
          index[wi] = lowlink[wi] = next_index++;
          stack.push_back(w);
          on_stack[wi] = 1;
          call_stack.push_back({w, 0});
        } else if (on_stack[wi]) {
          lowlink[static_cast<std::size_t>(v)] =
              std::min(lowlink[static_cast<std::size_t>(v)], index[wi]);
        }
        continue;
      }
      // v is fully explored.
      call_stack.pop_back();
      const auto vi = static_cast<std::size_t>(v);
      if (!call_stack.empty()) {
        const auto pi = static_cast<std::size_t>(call_stack.back().v);
        lowlink[pi] = std::min(lowlink[pi], lowlink[vi]);
      }
      if (lowlink[vi] == index[vi]) {
        // v is the root of an SCC; pop it off the node stack.
        std::vector<NodeId> comp;
        for (;;) {
          const NodeId w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          part.comp_of[static_cast<std::size_t>(w)] = part.count;
          comp.push_back(w);
          if (w == v) break;
        }
        std::reverse(comp.begin(), comp.end());
        part.members.push_back(std::move(comp));
        ++part.count;
      }
    }
  }
  return part;
}

Condensation condense(const Digraph& g) {
  Condensation c;
  c.partition = scc(g);
  std::vector<Edge> arcs;
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    const Edge& edge = g.edge(e);
    const int cs = c.partition.comp_of[static_cast<std::size_t>(edge.src)];
    const int cd = c.partition.comp_of[static_cast<std::size_t>(edge.dst)];
    if (cs != cd) {
      arcs.push_back(Edge{static_cast<NodeId>(cs), static_cast<NodeId>(cd)});
      c.edge_origin.push_back(e);
    }
  }
  c.dag = Digraph(static_cast<std::size_t>(c.partition.count), std::move(arcs));
  return c;
}

bool is_strongly_connected(const Digraph& g) {
  if (g.num_nodes() == 0) return false;
  return scc(g).count == 1;
}

}  // namespace lid::graph
