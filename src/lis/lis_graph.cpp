#include "lis/lis_graph.hpp"

#include <limits>

#include "mg/mcm.hpp"
#include "util/split.hpp"

namespace lid::lis {

CoreId LisGraph::add_core(std::string name) {
  const CoreId v = structure_.add_node();
  if (name.empty()) name = "core" + std::to_string(v);
  names_.push_back(std::move(name));
  latencies_.push_back(1);
  return v;
}

void LisGraph::set_core_latency(CoreId v, int latency) {
  LID_ENSURE(v >= 0 && static_cast<std::size_t>(v) < latencies_.size(), "core id out of range");
  LID_ENSURE(latency >= 1, "set_core_latency: latency must be at least 1");
  latencies_[static_cast<std::size_t>(v)] = latency;
}

int LisGraph::core_latency(CoreId v) const {
  LID_ENSURE(v >= 0 && static_cast<std::size_t>(v) < latencies_.size(), "core id out of range");
  return latencies_[static_cast<std::size_t>(v)];
}

ChannelId LisGraph::add_channel(CoreId src, CoreId dst, int relay_stations, int queue_capacity) {
  LID_ENSURE(relay_stations >= 0, "add_channel: negative relay-station count");
  // q = 0 is representable (the lint layer diagnoses it as L002/L001) so that
  // broken-but-parseable netlists can be analyzed statically instead of being
  // rejected at construction; a correct LIS always has q >= 1.
  LID_ENSURE(queue_capacity >= 0, "add_channel: negative queue capacity");
  const ChannelId c = structure_.add_edge(src, dst);
  channels_.push_back(Channel{src, dst, relay_stations, queue_capacity});
  return c;
}

const Channel& LisGraph::channel(ChannelId c) const {
  check_channel(c);
  return channels_[static_cast<std::size_t>(c)];
}

const std::string& LisGraph::core_name(CoreId v) const {
  LID_ENSURE(v >= 0 && static_cast<std::size_t>(v) < names_.size(), "core id out of range");
  return names_[static_cast<std::size_t>(v)];
}

void LisGraph::set_relay_stations(ChannelId c, int relay_stations) {
  check_channel(c);
  LID_ENSURE(relay_stations >= 0, "set_relay_stations: negative count");
  channels_[static_cast<std::size_t>(c)].relay_stations = relay_stations;
}

void LisGraph::set_queue_capacity(ChannelId c, int queue_capacity) {
  check_channel(c);
  LID_ENSURE(queue_capacity >= 0, "set_queue_capacity: negative capacity");
  channels_[static_cast<std::size_t>(c)].queue_capacity = queue_capacity;
}

void LisGraph::set_all_queue_capacities(int q) {
  LID_ENSURE(q >= 1, "set_all_queue_capacities: capacity must be at least 1");
  for (auto& ch : channels_) ch.queue_capacity = q;
}

int LisGraph::total_relay_stations() const {
  int total = 0;
  for (const auto& ch : channels_) total += ch.relay_stations;
  return total;
}

namespace {

// One pass: count every transition and place, then fill flat arrays in id
// order and build the marked graph from them (the layout is documented on
// Expansion).
Expansion expand(const LisGraph& lis, bool with_backedges) {
  const std::size_t cores = lis.num_cores();
  const std::size_t channels = lis.num_channels();
  const std::size_t per_hop = with_backedges ? 2 : 1;
  std::size_t num_transitions = 0;
  std::size_t num_places = 0;
  for (CoreId v = 0; v < static_cast<CoreId>(cores); ++v) {
    const auto latency = static_cast<std::size_t>(lis.core_latency(v));
    num_transitions += latency;
    num_places += (latency - 1) * per_hop;
  }
  const std::size_t first_relay = num_transitions;
  for (ChannelId c = 0; c < static_cast<ChannelId>(channels); ++c) {
    const auto rs = static_cast<std::size_t>(lis.channel(c).relay_stations);
    num_transitions += rs;
    num_places += (rs + 1) * per_hop;
  }
  constexpr std::size_t kMaxIds = std::numeric_limits<mg::PlaceId>::max();
  LID_ENSURE(num_transitions <= kMaxIds && num_places <= kMaxIds,
             "expansion exceeds 32-bit transition or place ids");

  std::vector<mg::TransitionKind> kinds;
  std::vector<std::string> names;
  std::vector<graph::Edge> arcs;
  std::vector<std::int64_t> tokens;
  std::vector<mg::PlaceKind> place_kinds;
  kinds.reserve(num_transitions);
  names.reserve(num_transitions);
  arcs.reserve(num_places);
  tokens.reserve(num_places);
  place_kinds.reserve(num_places);
  const auto add_place = [&](mg::TransitionId src, mg::TransitionId dst, std::int64_t tok,
                             mg::PlaceKind kind) {
    arcs.push_back(graph::Edge{src, dst});
    tokens.push_back(tok);
    place_kinds.push_back(kind);
  };

  Expansion out;
  out.doubled = with_backedges;
  out.core_transition.reserve(cores);
  out.core_output_transition.reserve(cores);
  for (CoreId v = 0; v < static_cast<CoreId>(cores); ++v) {
    const int latency = lis.core_latency(v);
    const auto first = static_cast<mg::TransitionId>(kinds.size());
    if (latency == 1) {
      // A simple core: one shell transition is both input and output stage.
      kinds.push_back(mg::TransitionKind::kShell);
      names.push_back(lis.core_name(v));
      out.core_transition.push_back(first);
      out.core_output_transition.push_back(first);
      continue;
    }
    // A pipelined core (footnote 3): the input stage AND-fires on the input
    // queues, L - 1 void-initialized places delay the result, and the output
    // stage (which holds the initial latched output) drives the channels.
    // In the doubled graph every internal stage is elastic with twofold
    // capacity (like a relay station's master/slave pair), which keeps the
    // pipeline bounded without throttling it below one item per period.
    // Its stages are transitions first .. first + L - 1: in, p1 .. p(L-2),
    // then the output shell.
    kinds.push_back(mg::TransitionKind::kPipelineStage);
    names.push_back(lis.core_name(v) + ".in");
    for (int stage = 1; stage + 1 < latency; ++stage) {
      kinds.push_back(mg::TransitionKind::kPipelineStage);
      std::string& name = names.emplace_back(lis.core_name(v));
      name += ".p";
      util::append_decimal(name, stage);
    }
    kinds.push_back(mg::TransitionKind::kShell);
    names.push_back(lis.core_name(v));
    const mg::TransitionId outp = first + latency - 1;
    for (mg::TransitionId t = first; t < outp; ++t) {
      add_place(t, t + 1, 0, mg::PlaceKind::kForward);
    }
    if (with_backedges) {
      for (mg::TransitionId t = first; t < outp; ++t) {
        add_place(t + 1, t, 2, mg::PlaceKind::kBackward);
      }
    }
    out.core_transition.push_back(first);
    out.core_output_transition.push_back(outp);
  }

  out.place_channel.assign(arcs.size(), graph::kInvalidEdge);
  out.place_channel.reserve(num_places);
  out.channel_place.reserve(channels + 1);
  auto next_relay = static_cast<mg::TransitionId>(first_relay);
  std::string prefix;
  for (ChannelId c = 0; c < static_cast<ChannelId>(channels); ++c) {
    const Channel& ch = lis.channel(c);
    // Transition chain along the channel: src core's output stage, relay
    // stations, dst core's input stage.
    const mg::TransitionId src = out.core_output_transition[static_cast<std::size_t>(ch.src)];
    const mg::TransitionId dst = out.core_transition[static_cast<std::size_t>(ch.dst)];
    const mg::TransitionId rs0 = next_relay;
    const auto chain = [&](int hop) {
      return hop == 0 ? src : hop <= ch.relay_stations ? rs0 + hop - 1 : dst;
    };
    if (ch.relay_stations > 0) {
      prefix = lis.core_name(ch.src);
      prefix += "->";
      prefix += lis.core_name(ch.dst);
      prefix += ".rs";
    }
    for (int r = 0; r < ch.relay_stations; ++r) {
      kinds.push_back(mg::TransitionKind::kRelayStation);
      util::append_decimal(names.emplace_back(prefix), r);
    }
    next_relay += ch.relay_stations;

    out.channel_place.push_back(static_cast<mg::PlaceId>(arcs.size()));
    for (int hop = 0; hop <= ch.relay_stations; ++hop) {
      const bool producer_is_shell =
          kinds[static_cast<std::size_t>(chain(hop))] == mg::TransitionKind::kShell;
      add_place(chain(hop), chain(hop + 1), producer_is_shell ? 1 : 0, mg::PlaceKind::kForward);
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
        add_place(chain(r + 1), chain(r), 2, mg::PlaceKind::kBackward);
      }
      add_place(dst, src, static_cast<std::int64_t>(ch.queue_capacity) + 2 * ch.relay_stations,
                mg::PlaceKind::kBackward);
    }
    out.place_channel.resize(arcs.size(), c);
  }
  out.channel_place.push_back(static_cast<mg::PlaceId>(arcs.size()));

  out.graph = mg::MarkedGraph(std::move(kinds), std::move(names), std::move(arcs),
                              std::move(tokens), std::move(place_kinds));
  return out;
}

}  // namespace

Expansion expand_ideal(const LisGraph& lis) { return expand(lis, /*with_backedges=*/false); }

Expansion expand_doubled(const LisGraph& lis) { return expand(lis, /*with_backedges=*/true); }

util::Rational ideal_mst(const LisGraph& lis) { return mg::mst(expand_ideal(lis).graph); }

util::Rational practical_mst(const LisGraph& lis) { return mg::mst(expand_doubled(lis).graph); }

}  // namespace lid::lis
