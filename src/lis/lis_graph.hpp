// The latency-insensitive system (LIS) netlist model.
//
// A LIS is a set of cores, each encapsulated in a shell, connected by
// point-to-point channels. A channel may be pipelined by relay stations
// (clocked buffers with twofold capacity) and terminates in an input queue of
// the destination shell (capacity q >= 1). This module owns the netlist
// representation and its expansion into the two marked graphs of the paper:
//   * the ideal graph G        — forward places only (infinite queues), and
//   * the doubled graph d[G]   — forward places plus one backpressure place
//                                per hop (finite queues, Sec. III-D).
#pragma once

#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "mg/marked_graph.hpp"
#include "util/rational.hpp"

namespace lid::lis {

using CoreId = graph::NodeId;
using ChannelId = graph::EdgeId;

/// One point-to-point channel of the LIS.
struct Channel {
  CoreId src = graph::kInvalidNode;
  CoreId dst = graph::kInvalidNode;
  /// Number of relay stations pipelining the channel.
  int relay_stations = 0;
  /// Capacity of the destination shell's input queue for this channel. A
  /// correct LIS has q >= 1; q = 0 is representable so the lint layer can
  /// diagnose it (L002, and L001 when it deadlocks a cycle) instead of the
  /// model rejecting the netlist outright.
  int queue_capacity = 1;
};

/// A LIS netlist: cores + channels, with per-channel relay-station counts and
/// queue capacities.
class LisGraph {
 public:
  LisGraph() = default;

  /// Adds a core (shell); returns its id.
  CoreId add_core(std::string name = {});

  /// Sets the core's pipeline latency (>= 1). A core with latency L takes L
  /// clock periods from consuming its inputs to presenting the outputs
  /// (footnote 3 of the paper: e.g. a three-stage multiplier has L = 3).
  /// The expansion models the extra L - 1 stages as void-initialized
  /// internal transitions, so loops through the core lose throughput exactly
  /// as loops through relay stations do.
  void set_core_latency(CoreId v, int latency);

  /// The core's pipeline latency (default 1).
  [[nodiscard]] int core_latency(CoreId v) const;

  /// Adds a channel src -> dst with `relay_stations` relay stations and a
  /// destination input queue of `queue_capacity` slots.
  ChannelId add_channel(CoreId src, CoreId dst, int relay_stations = 0, int queue_capacity = 1);

  [[nodiscard]] std::size_t num_cores() const { return structure_.num_nodes(); }
  [[nodiscard]] std::size_t num_channels() const { return structure_.num_edges(); }

  [[nodiscard]] const graph::Digraph& structure() const { return structure_; }
  [[nodiscard]] const Channel& channel(ChannelId c) const;
  [[nodiscard]] const std::string& core_name(CoreId v) const;

  void set_relay_stations(ChannelId c, int relay_stations);
  void set_queue_capacity(ChannelId c, int queue_capacity);

  /// Sets every channel's queue capacity to `q` (fixed queue sizing, Sec. IV).
  void set_all_queue_capacities(int q);

  /// Total relay stations across all channels.
  [[nodiscard]] int total_relay_stations() const;

 private:
  void check_channel(ChannelId c) const {
    LID_ENSURE(c >= 0 && static_cast<std::size_t>(c) < channels_.size(), "channel id out of range");
  }

  graph::Digraph structure_;
  std::vector<Channel> channels_;
  std::vector<std::string> names_;
  std::vector<int> latencies_;
};

/// A marked graph expanded from a LisGraph, with the maps needed to relate
/// places back to channels.
///
/// Place ids are laid out core by core, then channel by channel. A pipelined
/// core's internal places come first. Channel ch then owns the consecutive
/// ids [channel_place[ch], channel_place[ch + 1]): its relay_stations + 1
/// forward hops, then, in d[G], its relay-station backedges and its queue
/// backedge. Transitions are every core's stages in core order, then every
/// channel's relay stations in channel order.
struct Expansion {
  using PlaceRun = std::ranges::iota_view<mg::PlaceId, mg::PlaceId>;

  mg::MarkedGraph graph;

  /// Input (AND-firing) transition of each core — for a simple core the one
  /// and only shell transition; for a pipelined core the stage consuming the
  /// input queues.
  std::vector<mg::TransitionId> core_transition;

  /// Output transition of each core (== core_transition for latency 1).
  /// Channels leave from here, and queue backedges return here.
  std::vector<mg::TransitionId> core_output_transition;

  /// First place of each channel, plus one past the last (num_channels + 1
  /// entries).
  std::vector<mg::PlaceId> channel_place;

  /// True for d[G] (backpressure places present), false for G.
  bool doubled = false;

  /// Channel that produced each place (indexed by PlaceId); kInvalidEdge for
  /// a pipelined core's internal places.
  std::vector<ChannelId> place_channel;

  /// Forward hops of channel ch, from the source shell through its relay
  /// stations to the destination shell (relay_stations + 1 places).
  [[nodiscard]] PlaceRun forward_places(ChannelId ch) const {
    const auto [first, last] = run_of(ch);
    return PlaceRun(first, doubled ? first + (last - first) / 2 : last);
  }

  /// Backpressure places of channel ch; empty for ideal expansions. Entries
  /// 0..rs-1 are the hop-level relay-station backedges (relay station i back
  /// to its upstream element, 2 tokens each — fixed hardware capacity); the
  /// last entry is the channel-level input-queue backedge (destination shell
  /// back to the source shell, q tokens — the only one a designer can size).
  [[nodiscard]] PlaceRun backward_places(ChannelId ch) const {
    const auto [first, last] = run_of(ch);
    return PlaceRun(doubled ? first + (last - first) / 2 : last, last);
  }

  /// The input-queue backpressure place of channel ch, or kInvalidEdge for
  /// ideal expansions.
  [[nodiscard]] mg::PlaceId queue_place(ChannelId ch) const {
    return doubled ? run_of(ch).second - 1 : graph::kInvalidEdge;
  }

  /// True when place p is the queue backedge of the channel that produced it.
  [[nodiscard]] bool is_queue_place(mg::PlaceId p) const {
    const ChannelId ch = place_channel[static_cast<std::size_t>(p)];
    return ch != graph::kInvalidEdge && queue_place(ch) == p;
  }

 private:
  [[nodiscard]] std::pair<mg::PlaceId, mg::PlaceId> run_of(ChannelId ch) const {
    const auto c = static_cast<std::size_t>(ch);
    return {channel_place[c], channel_place[c + 1]};
  }
};

/// Expands to the ideal marked graph G: forward places only. Forward place
/// tokens follow Fig. 3: one token when the producing transition is a shell,
/// zero when it is a relay station.
Expansion expand_ideal(const LisGraph& lis);

/// Expands to the doubled graph d[G]: forward places as in expand_ideal plus
/// backpressure places — a hop-level backedge per relay station (2 tokens)
/// and a channel-level input-queue backedge per channel (q tokens).
Expansion expand_doubled(const LisGraph& lis);

/// θ(G): MST of the ideal LIS (infinite queues, no backpressure).
util::Rational ideal_mst(const LisGraph& lis);

/// θ(d[G]): MST of the practical LIS (finite queues with backpressure).
util::Rational practical_mst(const LisGraph& lis);

}  // namespace lid::lis
