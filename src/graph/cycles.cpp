#include "graph/cycles.hpp"

#include <algorithm>

#include "graph/scc.hpp"

namespace lid::graph {
namespace {

/// Johnson's elementary-circuit enumeration, extended to multigraphs: cycles
/// are vertex-elementary, and parallel edges produce one cycle per distinct
/// edge sequence. Each cycle is discovered exactly once, in the round whose
/// start vertex is the cycle's least vertex.
class JohnsonEnumerator {
 public:
  JohnsonEnumerator(const Digraph& g, const std::function<bool(const Cycle&)>& on_cycle,
                    const std::function<bool(EdgeId)>& edge_filter,
                    const util::CancelToken& cancel)
      : g_(g), on_cycle_(on_cycle), edge_filter_(edge_filter), cancel_(cancel) {}

  /// Returns true when enumeration ran to completion.
  bool run() {
    const std::size_t n = g_.num_nodes();
    blocked_.assign(n, 0);
    block_map_.assign(n, {});
    in_round_.assign(n, 0);
    // Size the hot per-round buffers up front: the DFS stack and the round's
    // node list never exceed n entries, and reserving here keeps circuit()'s
    // push/pop cycle reallocation-free for the whole enumeration.
    round_nodes_.reserve(n);
    edge_stack_.reserve(n);
    unblock_work_.reserve(n);

    for (NodeId s = 0; s < static_cast<NodeId>(n) && !stopped_; ++s) {
      if (cancel_.can_cancel() && cancel_.cancelled()) {
        stopped_ = true;
        cancelled_ = true;
        break;
      }
      mark_round_component(s);
      if (!in_round_[static_cast<std::size_t>(s)]) continue;
      for (const NodeId v : round_nodes_) {
        blocked_[static_cast<std::size_t>(v)] = 0;
        block_map_[static_cast<std::size_t>(v)].clear();
      }
      start_ = s;
      circuit(s);
    }
    return !stopped_;
  }

  /// True when the cancel token (not the callback) ended enumeration.
  [[nodiscard]] bool cancelled() const { return cancelled_; }

 private:
  bool allowed(EdgeId e) const { return !edge_filter_ || edge_filter_(e); }

  /// Marks in_round_ for the SCC containing `s` within the subgraph induced
  /// by vertices >= s (and allowed edges). Also records the marked nodes in
  /// round_nodes_ so flags can be reset cheaply.
  void mark_round_component(NodeId s) {
    for (const NodeId v : round_nodes_) in_round_[static_cast<std::size_t>(v)] = 0;
    round_nodes_.clear();

    // Build the induced subgraph over vertices >= s. Node v of g maps to
    // v - s in the subgraph.
    const auto n = static_cast<NodeId>(g_.num_nodes());
    std::vector<Edge> arcs;
    bool s_has_relevant_edge = false;
    for (NodeId v = s; v < n; ++v) {
      for (const EdgeId e : g_.out_edges(v)) {
        const NodeId w = g_.edge(e).dst;
        if (w < s || !allowed(e)) continue;
        arcs.push_back(Edge{v - s, w - s});
        if (v == s || w == s) s_has_relevant_edge = true;
      }
    }
    if (!s_has_relevant_edge) return;

    const Digraph sub(static_cast<std::size_t>(n - s), std::move(arcs));
    const SccPartition part = scc(sub);
    const int cs = part.comp_of[0];  // component of s (node 0 in sub)
    const bool cyclic = part.is_cyclic(cs, sub);
    if (!cyclic) return;
    for (NodeId v = 0; v < static_cast<NodeId>(sub.num_nodes()); ++v) {
      if (part.comp_of[static_cast<std::size_t>(v)] == cs) {
        in_round_[static_cast<std::size_t>(v + s)] = 1;
        round_nodes_.push_back(v + s);
      }
    }
  }

  bool circuit(NodeId v) {
    // Poll the token on a stride: recursion steps are cheap, so checking the
    // clock on each would dominate; a cancelled enumeration still stops
    // within 256 steps.
    if (cancel_.can_cancel() && ++poll_counter_ % 256 == 0 && cancel_.cancelled()) {
      stopped_ = true;
      cancelled_ = true;
    }
    if (stopped_) return false;
    bool found = false;
    blocked_[static_cast<std::size_t>(v)] = 1;
    for (const EdgeId e : g_.out_edges(v)) {
      if (stopped_) break;
      if (!allowed(e)) continue;
      const NodeId w = g_.edge(e).dst;
      if (w < start_ || !in_round_[static_cast<std::size_t>(w)]) continue;
      if (w == start_) {
        Cycle cycle = edge_stack_;
        cycle.push_back(e);
        if (!on_cycle_(cycle)) stopped_ = true;
        found = true;
      } else if (!blocked_[static_cast<std::size_t>(w)]) {
        edge_stack_.push_back(e);
        if (circuit(w)) found = true;
        edge_stack_.pop_back();
      }
    }
    if (found) {
      unblock(v);
    } else {
      // v found no circuit: block it until some successor is unblocked.
      for (const EdgeId e : g_.out_edges(v)) {
        if (!allowed(e)) continue;
        const NodeId w = g_.edge(e).dst;
        if (w < start_ || !in_round_[static_cast<std::size_t>(w)]) continue;
        auto& preds = block_map_[static_cast<std::size_t>(w)];
        if (std::find(preds.begin(), preds.end(), v) == preds.end()) preds.push_back(v);
      }
    }
    return found;
  }

  void unblock(NodeId v) {
    // Iterative unblock cascade; the work stack is a member so the cascade
    // (run once per emitted cycle) never reallocates.
    std::vector<NodeId>& work = unblock_work_;
    work.clear();
    work.push_back(v);
    while (!work.empty()) {
      const NodeId u = work.back();
      work.pop_back();
      if (!blocked_[static_cast<std::size_t>(u)]) continue;
      blocked_[static_cast<std::size_t>(u)] = 0;
      for (const NodeId p : block_map_[static_cast<std::size_t>(u)]) {
        if (blocked_[static_cast<std::size_t>(p)]) work.push_back(p);
      }
      block_map_[static_cast<std::size_t>(u)].clear();
    }
  }

  const Digraph& g_;
  const std::function<bool(const Cycle&)>& on_cycle_;
  const std::function<bool(EdgeId)>& edge_filter_;
  const util::CancelToken& cancel_;

  NodeId start_ = 0;
  bool stopped_ = false;
  bool cancelled_ = false;
  std::uint64_t poll_counter_ = 0;
  std::vector<char> blocked_;
  std::vector<std::vector<NodeId>> block_map_;
  std::vector<char> in_round_;
  std::vector<NodeId> round_nodes_;
  Cycle edge_stack_;
  std::vector<NodeId> unblock_work_;
};

}  // namespace

bool for_each_cycle(const Digraph& g, const std::function<bool(const Cycle&)>& on_cycle,
                    const std::function<bool(EdgeId)>& edge_filter,
                    const util::CancelToken& cancel) {
  LID_ENSURE(static_cast<bool>(on_cycle), "for_each_cycle: callback required");
  JohnsonEnumerator enumerator(g, on_cycle, edge_filter, cancel);
  return enumerator.run();
}

CycleEnumResult enumerate_cycles(const Digraph& g, const CycleEnumOptions& options) {
  CycleEnumResult result;
  // Named std::function (not auto): the enumerator stores a reference to it.
  const std::function<bool(const Cycle&)> collect = [&](const Cycle& c) {
    result.cycles.push_back(c);
    return options.max_cycles == 0 || result.cycles.size() < options.max_cycles;
  };
  JohnsonEnumerator enumerator(g, collect, options.edge_filter, options.cancel);
  const bool complete = enumerator.run();
  result.truncated = !complete;
  result.cancelled = enumerator.cancelled();
  return result;
}

bool has_cycle(const Digraph& g) {
  const SccPartition part = scc(g);
  for (int c = 0; c < part.count; ++c) {
    if (part.is_cyclic(c, g)) return true;
  }
  return false;
}

Cycle find_cycle(const Digraph& g, const std::function<bool(EdgeId)>& edge_filter) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  std::vector<char> color(static_cast<std::size_t>(n), 0);  // 0 new, 1 on path, 2 done
  std::vector<EdgeId> via(static_cast<std::size_t>(n), kInvalidEdge);  // path-entry edge
  struct Frame {
    NodeId node;
    std::size_t next;  // index into out_edges(node)
  };
  std::vector<Frame> stack;
  for (NodeId root = 0; root < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    color[static_cast<std::size_t>(root)] = 1;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::span<const EdgeId> out = g.out_edges(frame.node);
      if (frame.next == out.size()) {
        color[static_cast<std::size_t>(frame.node)] = 2;
        stack.pop_back();
        continue;
      }
      const EdgeId e = out[frame.next++];
      if (edge_filter && !edge_filter(e)) continue;
      const NodeId w = g.edge(e).dst;
      if (color[static_cast<std::size_t>(w)] == 0) {
        color[static_cast<std::size_t>(w)] = 1;
        via[static_cast<std::size_t>(w)] = e;
        stack.push_back({w, 0});
      } else if (color[static_cast<std::size_t>(w)] == 1) {
        // `e` closes a cycle back to `w`: unwind the path-entry edges.
        Cycle cycle{e};
        for (NodeId v = frame.node; v != w; v = g.edge(via[static_cast<std::size_t>(v)]).src) {
          cycle.push_back(via[static_cast<std::size_t>(v)]);
        }
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
    }
  }
  return {};
}

}  // namespace lid::graph
