// The graph substrate as it was before the pooled adjacency and the one-pass
// expansions (see substrate_oracle.hpp). Bodies kept verbatim, renamespaced.
#include "substrate_oracle.hpp"

#include <algorithm>
#include <string>

namespace lid::graph::oracle {

NodeId Digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

NodeId Digraph::add_nodes(std::size_t n) {
  const NodeId first = static_cast<NodeId>(out_.size());
  out_.resize(out_.size() + n);
  in_.resize(in_.size() + n);
  return first;
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst) {
  check_node(src);
  check_node(dst);
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst});
  out_[static_cast<std::size_t>(src)].push_back(id);
  in_[static_cast<std::size_t>(dst)].push_back(id);
  return id;
}

bool Digraph::has_edge(NodeId src, NodeId dst) const {
  check_node(dst);
  const auto& outs = out_edges(src);
  return std::any_of(outs.begin(), outs.end(),
                     [&](EdgeId e) { return edges_[static_cast<std::size_t>(e)].dst == dst; });
}

std::vector<EdgeId> Digraph::edges_between(NodeId src, NodeId dst) const {
  check_node(dst);
  std::vector<EdgeId> found;
  for (const EdgeId e : out_edges(src)) {
    if (edges_[static_cast<std::size_t>(e)].dst == dst) found.push_back(e);
  }
  return found;
}

Digraph Digraph::reversed() const {
  Digraph rev(num_nodes());
  for (const Edge& e : edges_) rev.add_edge(e.dst, e.src);
  return rev;
}

}  // namespace lid::graph::oracle

namespace lid::lis::oracle {

namespace {

Expansion expand(const LisGraph& lis, bool with_backedges) {
  Expansion out;
  out.core_transition.reserve(lis.num_cores());
  out.core_output_transition.reserve(lis.num_cores());
  for (CoreId v = 0; v < static_cast<CoreId>(lis.num_cores()); ++v) {
    const int latency = lis.core_latency(v);
    if (latency == 1) {
      // A simple core: one shell transition is both input and output stage.
      const mg::TransitionId t =
          out.graph.add_transition(mg::TransitionKind::kShell, lis.core_name(v));
      out.core_transition.push_back(t);
      out.core_output_transition.push_back(t);
      continue;
    }
    // A pipelined core (footnote 3): the input stage AND-fires on the input
    // queues, L - 1 void-initialized places delay the result, and the output
    // stage (which holds the initial latched output) drives the channels.
    // In the doubled graph every internal stage is elastic with twofold
    // capacity (like a relay station's master/slave pair), which keeps the
    // pipeline bounded without throttling it below one item per period.
    const mg::TransitionId in =
        out.graph.add_transition(mg::TransitionKind::kPipelineStage, lis.core_name(v) + ".in");
    mg::TransitionId prev = in;
    std::vector<mg::TransitionId> internal_chain{in};
    for (int stage = 1; stage + 1 < latency; ++stage) {
      const mg::TransitionId mid = out.graph.add_transition(
          mg::TransitionKind::kPipelineStage,
          lis.core_name(v) + ".p" + std::to_string(stage));
      out.graph.add_place(prev, mid, 0, mg::PlaceKind::kForward);
      prev = mid;
      internal_chain.push_back(mid);
    }
    const mg::TransitionId outp =
        out.graph.add_transition(mg::TransitionKind::kShell, lis.core_name(v));
    out.graph.add_place(prev, outp, 0, mg::PlaceKind::kForward);
    internal_chain.push_back(outp);
    if (with_backedges) {
      for (std::size_t hop = 0; hop + 1 < internal_chain.size(); ++hop) {
        out.graph.add_place(internal_chain[hop + 1], internal_chain[hop], 2,
                            mg::PlaceKind::kBackward);
      }
    }
    out.core_transition.push_back(in);
    out.core_output_transition.push_back(outp);
  }
  out.forward_places.resize(lis.num_channels());
  out.backward_places.resize(lis.num_channels());

  for (ChannelId c = 0; c < static_cast<ChannelId>(lis.num_channels()); ++c) {
    const Channel& ch = lis.channel(c);
    // Transition chain along the channel: src core's output stage, relay
    // stations, dst core's input stage.
    std::vector<mg::TransitionId> chain;
    chain.push_back(out.core_output_transition[static_cast<std::size_t>(ch.src)]);
    for (int r = 0; r < ch.relay_stations; ++r) {
      chain.push_back(out.graph.add_transition(
          mg::TransitionKind::kRelayStation,
          lis.core_name(ch.src) + "->" + lis.core_name(ch.dst) + ".rs" + std::to_string(r)));
    }
    chain.push_back(out.core_transition[static_cast<std::size_t>(ch.dst)]);

    auto& fwd = out.forward_places[static_cast<std::size_t>(c)];
    auto& back = out.backward_places[static_cast<std::size_t>(c)];
    for (std::size_t hop = 0; hop + 1 < chain.size(); ++hop) {
      const mg::TransitionId producer = chain[hop];
      const mg::TransitionId consumer = chain[hop + 1];
      const bool producer_is_shell =
          out.graph.transition_kind(producer) == mg::TransitionKind::kShell;
      fwd.push_back(out.graph.add_place(producer, consumer, producer_is_shell ? 1 : 0,
                                        mg::PlaceKind::kForward));
    }
    if (with_backedges) {
      // Backpressure per Fig. 3 and Sec. III-B. Each relay station has a
      // hop-level backedge to its immediate upstream element carrying its two
      // free slots; the destination shell's input queue has a channel-level
      // backedge to the source shell carrying the end-to-end free storage the
      // source can see: q queue slots plus the 2r relay-station slots.
      //
      // This is the token placement that reproduces the paper exactly: the
      // critical cycle of Fig. 5 {A, rs, B, A} gets mean 2/3 via the *other*
      // channel's backedge, SCCs without reconvergent paths never degrade
      // (Sec. IV), the NP-reduction's edge-construct cycle has mean 4/6
      // (Fig. 12), and the Table VI cycle means come out to 5/7 and 4/6.
      for (int r = 0; r < ch.relay_stations; ++r) {
        const mg::TransitionId rs = chain[static_cast<std::size_t>(r) + 1];
        const mg::TransitionId upstream = chain[static_cast<std::size_t>(r)];
        back.push_back(out.graph.add_place(rs, upstream, 2, mg::PlaceKind::kBackward));
      }
      back.push_back(out.graph.add_place(
          chain.back(), chain.front(),
          static_cast<std::int64_t>(ch.queue_capacity) + 2 * ch.relay_stations,
          mg::PlaceKind::kBackward));
    }
  }

  out.place_channel.assign(out.graph.num_places(), graph::kInvalidEdge);
  for (ChannelId c = 0; c < static_cast<ChannelId>(lis.num_channels()); ++c) {
    for (const mg::PlaceId p : out.forward_places[static_cast<std::size_t>(c)]) {
      out.place_channel[static_cast<std::size_t>(p)] = c;
    }
    for (const mg::PlaceId p : out.backward_places[static_cast<std::size_t>(c)]) {
      out.place_channel[static_cast<std::size_t>(p)] = c;
    }
  }
  return out;
}

}  // namespace

Expansion expand_ideal(const LisGraph& lis) { return expand(lis, /*with_backedges=*/false); }

Expansion expand_doubled(const LisGraph& lis) { return expand(lis, /*with_backedges=*/true); }

}  // namespace lid::lis::oracle
