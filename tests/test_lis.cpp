#include <gtest/gtest.h>

#include "lis/lis_graph.hpp"
#include "lis/paper_systems.hpp"
#include "mg/mcm.hpp"
#include "util/rational.hpp"

namespace lid::lis {
namespace {

using util::Rational;

TEST(LisGraph, BasicConstruction) {
  LisGraph lis;
  const CoreId a = lis.add_core("A");
  const CoreId b = lis.add_core();
  const ChannelId c = lis.add_channel(a, b, 2, 3);
  EXPECT_EQ(lis.num_cores(), 2u);
  EXPECT_EQ(lis.num_channels(), 1u);
  EXPECT_EQ(lis.core_name(a), "A");
  EXPECT_EQ(lis.core_name(b), "core1");
  EXPECT_EQ(lis.channel(c).relay_stations, 2);
  EXPECT_EQ(lis.channel(c).queue_capacity, 3);
  EXPECT_EQ(lis.total_relay_stations(), 2);
}

TEST(LisGraph, RejectsBadParameters) {
  LisGraph lis;
  const CoreId a = lis.add_core();
  const CoreId b = lis.add_core();
  EXPECT_THROW(lis.add_channel(a, b, -1), std::invalid_argument);
  EXPECT_THROW(lis.add_channel(a, b, 0, -1), std::invalid_argument);
  const ChannelId c = lis.add_channel(a, b);
  EXPECT_THROW(lis.set_queue_capacity(c, -1), std::invalid_argument);
  EXPECT_THROW(lis.set_relay_stations(c, -2), std::invalid_argument);
  // q = 0 is representable on purpose: it is a semantic defect the lint
  // layer reports (L001/L002), not a construction error.
  EXPECT_EQ(lis.channel(lis.add_channel(a, b, 0, 0)).queue_capacity, 0);
  lis.set_queue_capacity(c, 0);
  EXPECT_EQ(lis.channel(c).queue_capacity, 0);
}

TEST(LisGraph, SetAllQueueCapacities) {
  LisGraph lis = make_two_core_example();
  lis.set_all_queue_capacities(4);
  EXPECT_EQ(lis.channel(0).queue_capacity, 4);
  EXPECT_EQ(lis.channel(1).queue_capacity, 4);
}

TEST(ExpandIdeal, StructureOfPipelinedChannel) {
  LisGraph lis;
  const CoreId a = lis.add_core("A");
  const CoreId b = lis.add_core("B");
  const ChannelId c = lis.add_channel(a, b, 2);
  const Expansion ex = expand_ideal(lis);
  // A, B plus two relay-station transitions.
  EXPECT_EQ(ex.graph.num_transitions(), 4u);
  EXPECT_EQ(ex.graph.num_places(), 3u);  // 3 forward hops, no backedges
  const auto fwd = ex.forward_places(c);
  ASSERT_EQ(fwd.size(), 3u);
  // First hop carries A's initial output; relay-station hops start void.
  EXPECT_EQ(ex.graph.tokens(fwd[0]), 1);
  EXPECT_EQ(ex.graph.tokens(fwd[1]), 0);
  EXPECT_EQ(ex.graph.tokens(fwd[2]), 0);
  EXPECT_EQ(ex.queue_place(c), graph::kInvalidEdge);
  EXPECT_TRUE(ex.backward_places(c).empty());
  // Expansion of an ideal LIS is a valid LIS marked graph.
  EXPECT_NO_THROW(ex.graph.validate_lis_structure());
}

TEST(ExpandDoubled, BackedgeTokensFollowThePaperModel) {
  LisGraph lis;
  const CoreId a = lis.add_core("A");
  const CoreId b = lis.add_core("B");
  const ChannelId c = lis.add_channel(a, b, 2, 3);
  const Expansion ex = expand_doubled(lis);
  const auto back = ex.backward_places(c);
  ASSERT_EQ(back.size(), 3u);  // 2 relay-station backedges + queue backedge
  // Hop-level relay-station backedges carry their two slots each.
  EXPECT_EQ(ex.graph.tokens(back[0]), 2);
  EXPECT_EQ(ex.graph.tokens(back[1]), 2);
  // The channel-level queue backedge carries q + 2r = 3 + 4.
  const mg::PlaceId queue = ex.queue_place(c);
  EXPECT_EQ(queue, back.back());
  EXPECT_EQ(ex.graph.tokens(queue), 7);
  // It runs from the destination shell straight back to the source shell.
  EXPECT_EQ(ex.graph.producer(queue), ex.core_transition[static_cast<std::size_t>(b)]);
  EXPECT_EQ(ex.graph.consumer(queue), ex.core_transition[static_cast<std::size_t>(a)]);
  EXPECT_EQ(ex.graph.place_kind(queue), mg::PlaceKind::kBackward);
}

TEST(ExpandDoubled, PlaceChannelMapCoversEverything) {
  const LisGraph lis = make_two_core_example();
  const Expansion ex = expand_doubled(lis);
  ASSERT_EQ(ex.place_channel.size(), ex.graph.num_places());
  for (const ChannelId ch : ex.place_channel) {
    EXPECT_NE(ch, graph::kInvalidEdge);
  }
}

TEST(Mst, SelfLoopChannel) {
  LisGraph lis;
  const CoreId a = lis.add_core();
  lis.add_channel(a, a);
  EXPECT_EQ(ideal_mst(lis), Rational(1));
  EXPECT_EQ(practical_mst(lis), Rational(1));
  lis.set_relay_stations(0, 1);
  // One relay station on a self-loop: cycle of 2 places, 1 token.
  EXPECT_EQ(ideal_mst(lis), Rational(1, 2));
}

TEST(Mst, UplinkFasterThanDownlink) {
  // Sec. III-C: when a faster SCC feeds a slower one, the slower SCC sets
  // the MST of the whole system.
  LisGraph lis;
  const CoreId a0 = lis.add_core();
  const CoreId a1 = lis.add_core();
  const CoreId a2 = lis.add_core();
  const CoreId a3 = lis.add_core();
  lis.add_channel(a0, a1);
  lis.add_channel(a1, a2);
  lis.add_channel(a2, a3);
  lis.add_channel(a3, a0, 1);  // uplink ring: 5 places, 4 tokens -> MST 4/5
  const CoreId b0 = lis.add_core();
  const CoreId b1 = lis.add_core();
  const CoreId b2 = lis.add_core();
  lis.add_channel(b0, b1);
  lis.add_channel(b1, b2);
  lis.add_channel(b2, b0, 1);  // downlink ring: 4 places, 3 tokens -> MST 3/4
  lis.add_channel(a0, b0);     // uplink feeds downlink
  EXPECT_EQ(ideal_mst(lis), Rational(3, 4));
}

TEST(PaperSystems, BuildersExposeDocumentedIds) {
  const LisGraph two = make_two_core_example();
  EXPECT_EQ(two.num_cores(), 2u);
  EXPECT_EQ(two.channel(0).relay_stations, 1);
  EXPECT_EQ(two.channel(1).relay_stations, 0);
  const LisGraph fig15 = make_fig15_counterexample();
  EXPECT_EQ(fig15.num_cores(), 5u);
  EXPECT_EQ(fig15.num_channels(), 7u);
  EXPECT_EQ(fig15.total_relay_stations(), 1);
}

TEST(Mst, DoubledNeverExceedsIdeal) {
  // θ(d[G]) <= θ(G) always: backedges only add cycles.
  const LisGraph systems[] = {make_two_core_example(), make_two_core_example_sized(),
                              make_two_core_example_balanced(), make_fig15_counterexample()};
  for (const LisGraph& lis : systems) {
    EXPECT_LE(practical_mst(lis), ideal_mst(lis));
  }
}

}  // namespace
}  // namespace lid::lis
