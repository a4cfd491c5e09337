// The graph substrate as it was before the pooled adjacency and the one-pass
// expansions: a Digraph with one heap vector per node and direction, and an
// `expand` that grows the marked graph one add_transition/add_place at a
// time and keeps one place vector per channel. Their bodies are kept
// verbatim, renamespaced, as the oracles that test_substrate compares the
// production graph::Digraph and lis::expand_ideal/expand_doubled against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "lis/lis_graph.hpp"
#include "mg/marked_graph.hpp"
#include "util/check.hpp"

namespace lid::graph::oracle {

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

  /// Adds one node; returns its id.
  NodeId add_node();

  /// Adds `n` nodes; returns the id of the first.
  NodeId add_nodes(std::size_t n);

  /// Adds a directed edge src -> dst; returns its id. Ids are dense and
  /// assigned in insertion order.
  EdgeId add_edge(NodeId src, NodeId dst);

  [[nodiscard]] std::size_t num_nodes() const { return out_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    LID_ENSURE(e >= 0 && static_cast<std::size_t>(e) < edges_.size(), "edge id out of range");
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Out-edges of `v`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId v) const {
    check_node(v);
    return out_[static_cast<std::size_t>(v)];
  }

  /// In-edges of `v`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId v) const {
    check_node(v);
    return in_[static_cast<std::size_t>(v)];
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
  void check_node(NodeId v) const {
    LID_ENSURE(v >= 0 && static_cast<std::size_t>(v) < out_.size(), "node id out of range");
  }

  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace lid::graph::oracle

namespace lid::lis::oracle {

/// A marked graph expanded from a LisGraph, with the maps needed to relate
/// places back to channels.
struct Expansion {
  mg::MarkedGraph graph;

  /// Input (AND-firing) transition of each core — for a simple core the one
  /// and only shell transition; for a pipelined core the stage consuming the
  /// input queues.
  std::vector<mg::TransitionId> core_transition;

  /// Output transition of each core (== core_transition for latency 1).
  /// Channels leave from here, and queue backedges return here.
  std::vector<mg::TransitionId> core_output_transition;

  /// forward_places[ch][i] = i-th forward hop of channel ch, from the source
  /// shell through its relay stations to the destination shell
  /// (relay_stations + 1 hops).
  std::vector<std::vector<mg::PlaceId>> forward_places;

  /// Backpressure places of channel ch; empty for ideal expansions. Entries
  /// 0..rs-1 are the hop-level relay-station backedges (relay station i back
  /// to its upstream element, 2 tokens each — fixed hardware capacity); the
  /// last entry is the channel-level input-queue backedge (destination shell
  /// back to the source shell, q tokens — the only one a designer can size).
  std::vector<std::vector<mg::PlaceId>> backward_places;

  /// Channel that produced each place (indexed by PlaceId).
  std::vector<ChannelId> place_channel;

  /// The input-queue backpressure place of channel ch, or kInvalidEdge for
  /// ideal expansions.
  [[nodiscard]] mg::PlaceId queue_place(ChannelId ch) const {
    const auto& back = backward_places[static_cast<std::size_t>(ch)];
    return back.empty() ? graph::kInvalidEdge : back.back();
  }
};

/// Expands to the ideal marked graph G: forward places only.
Expansion expand_ideal(const LisGraph& lis);

/// Expands to the doubled graph d[G]: forward places plus backpressure
/// places.
Expansion expand_doubled(const LisGraph& lis);

}  // namespace lid::lis::oracle
