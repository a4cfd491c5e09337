// A compact directed multigraph.
//
// This is the structural substrate for everything in the library: LIS
// netlists, marked graphs, condensations, and the vertex-cover instances of
// the NP-completeness reduction are all Digraphs. Parallel edges are allowed
// (a LIS frequently has two channels between the same pair of cores — Fig. 1
// of the paper) and self-loops are allowed.
//
// Layout: the edge list, and per direction one pool of edge ids with one
// run per node. A node's out-edges are the ids pool[begin, begin + size) of
// its out-run, in insertion order, with room up to begin + capacity.
// add_edge appends to both runs; a full run moves to the end of its pool
// with twice the capacity (a run already at the end grows in place), so no
// node owns a heap block. The bulk constructor lays both pools out packed,
// by counting sort. Ids and pool offsets are 32-bit behind a checked bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace lid::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// One directed edge.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  bool operator==(const Edge&) const = default;
};

/// Directed multigraph with stable integer node/edge ids.
///
/// Nodes and edges can only be added, never removed; algorithms that need a
/// subgraph take a mask instead. This keeps ids stable so that satellite data
/// (relay-station counts, queue capacities, tokens) can live in parallel
/// vectors owned by higher layers.
class Digraph {
 public:
  Digraph() = default;

  /// Creates a graph with `n` isolated nodes.
  explicit Digraph(std::size_t n) { add_nodes(n); }

  /// Creates a graph with `n` nodes and `edges` in one pass: edge i gets id
  /// i, and every node's out- and in-edges come out packed, in id order —
  /// the graph add_edge would build from the same list.
  Digraph(std::size_t n, std::vector<Edge> edges);

  /// Adds one node; returns its id.
  NodeId add_node();

  /// Adds `n` nodes; returns the id of the first.
  NodeId add_nodes(std::size_t n);

  /// Adds a directed edge src -> dst; returns its id. Ids are dense and
  /// assigned in insertion order. Invalidates every span out_edges/in_edges
  /// returned before, on any node.
  EdgeId add_edge(NodeId src, NodeId dst);

  [[nodiscard]] std::size_t num_nodes() const { return out_.runs.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    LID_ENSURE(e >= 0 && static_cast<std::size_t>(e) < edges_.size(), "edge id out of range");
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Out-edges of `v`, in insertion order; valid until the next add_edge.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId v) const {
    check_node(v);
    return out_.of(v);
  }

  /// In-edges of `v`, in insertion order; valid until the next add_edge.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId v) const {
    check_node(v);
    return in_.of(v);
  }

  [[nodiscard]] std::size_t out_degree(NodeId v) const { return out_edges(v).size(); }
  [[nodiscard]] std::size_t in_degree(NodeId v) const { return in_edges(v).size(); }

  /// True if some edge src -> dst exists.
  [[nodiscard]] bool has_edge(NodeId src, NodeId dst) const;

  /// All edge ids from src to dst (parallel edges each appear once).
  [[nodiscard]] std::vector<EdgeId> edges_between(NodeId src, NodeId dst) const;

  /// The reverse graph (same ids; edge e in the result is edge e reversed).
  [[nodiscard]] Digraph reversed() const;

 private:
  /// One node's ids in one direction: pool[begin, begin + size), with room
  /// up to begin + capacity.
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// One direction's pool and the runs into it.
  struct Adjacency {
    std::vector<EdgeId> pool;
    std::vector<Run> runs;

    [[nodiscard]] std::span<const EdgeId> of(NodeId v) const {
      const Run& run = runs[static_cast<std::size_t>(v)];
      return {pool.data() + run.begin, run.size};
    }
    /// Appends `e` to v's run, moving the run first when it is full.
    void append(NodeId v, EdgeId e);
    /// Turns per-node counts (in `size`) into packed runs with size 0.
    void pack();
  };

  void check_node(NodeId v) const {
    LID_ENSURE(v >= 0 && static_cast<std::size_t>(v) < out_.runs.size(), "node id out of range");
  }

  std::vector<Edge> edges_;
  Adjacency out_;
  Adjacency in_;
};

}  // namespace lid::graph
