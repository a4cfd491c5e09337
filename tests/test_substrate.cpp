// Differential test of the graph substrate against the substrate it
// replaced (substrate_oracle.*).
//
// graph::Digraph (pooled adjacency runs, bulk constructor) against the
// Digraph with one vector per node and direction: random interleavings of
// add_node/add_nodes/add_edge with parallel edges, self-loops, empty graphs
// and hub nodes of thousands of edges; the bulk constructor on the same edge
// lists; copies, moves and reversed(). Counts, every edge, every out/in
// sequence, has_edge and edges_between must agree.
//
// lis::expand_ideal/expand_doubled (one pass, per-channel place runs)
// against the expansion that grew the marked graph one place at a time:
// fig1, fig15, COFDM, the 20 corpus systems, the paper's example systems,
// pipelined cores, and 2,400 generated systems. Transition kinds and names,
// place endpoints, tokens and kinds, the adjacency, core_transition,
// core_output_transition, every channel's forward and backward places,
// queue_place and place_channel must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "graph/digraph.hpp"
#include "lis/lis_graph.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "mg/marked_graph.hpp"
#include "soc/cofdm.hpp"
#include "substrate_oracle.hpp"
#include "util/rng.hpp"

#ifndef LID_DATA_DIR
#define LID_DATA_DIR "data"
#endif

namespace lid {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::NodeId;

template <typename Span>
std::vector<EdgeId> ids(const Span& span) {
  return {span.begin(), span.end()};
}

/// Every observable of `g` equals the oracle's. has_edge and edges_between
/// are compared on every pair up to 40 nodes, and on `probes` random pairs
/// (plus every node with itself) above.
template <typename Graph>
::testing::AssertionResult same_graph(const graph::Digraph& g, const Graph& oracle,
                                      util::Rng& rng, int probes = 400) {
  if (g.num_nodes() != oracle.num_nodes()) {
    return ::testing::AssertionFailure()
           << "node counts " << g.num_nodes() << " vs " << oracle.num_nodes();
  }
  if (g.num_edges() != oracle.num_edges()) {
    return ::testing::AssertionFailure()
           << "edge counts " << g.num_edges() << " vs " << oracle.num_edges();
  }
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    if (!(g.edge(e) == oracle.edge(e))) return ::testing::AssertionFailure() << "edge " << e;
  }
  const auto n = static_cast<NodeId>(g.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    if (ids(g.out_edges(v)) != ids(oracle.out_edges(v))) {
      return ::testing::AssertionFailure() << "out-edges of node " << v;
    }
    if (ids(g.in_edges(v)) != ids(oracle.in_edges(v))) {
      return ::testing::AssertionFailure() << "in-edges of node " << v;
    }
    if (g.out_degree(v) != oracle.out_degree(v) || g.in_degree(v) != oracle.in_degree(v)) {
      return ::testing::AssertionFailure() << "degrees of node " << v;
    }
  }
  const auto same_pair = [&](NodeId a, NodeId b) {
    return g.has_edge(a, b) == oracle.has_edge(a, b) &&
           g.edges_between(a, b) == oracle.edges_between(a, b);
  };
  if (n <= 40) {
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        if (!same_pair(a, b)) return ::testing::AssertionFailure() << "pair " << a << "," << b;
      }
    }
  } else {
    for (NodeId v = 0; v < n; ++v) {
      if (!same_pair(v, v)) return ::testing::AssertionFailure() << "self pair " << v;
    }
    for (int k = 0; k < probes; ++k) {
      const auto a = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
      const auto b = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
      if (!same_pair(a, b)) return ::testing::AssertionFailure() << "pair " << a << "," << b;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The oracle's edge list, for the bulk constructor.
std::vector<Edge> edge_list(const graph::oracle::Digraph& g) {
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) edges.push_back(g.edge(e));
  return edges;
}

/// Applies the same random operations to both graphs. With `hub`, most
/// edges touch node 0 (thousands of ids in one run); `parallel` and `loops`
/// are the chances of repeating the previous edge and of a self-loop.
void grow(graph::Digraph& g, graph::oracle::Digraph& oracle, util::Rng& rng, int ops, bool hub,
          double parallel, double loops) {
  Edge last{};
  for (int k = 0; k < ops; ++k) {
    const int op = rng.uniform_int(0, 19);
    if (g.num_nodes() == 0 || op == 0) {
      ASSERT_EQ(g.add_node(), oracle.add_node());
    } else if (op == 1) {
      const auto count = static_cast<std::size_t>(rng.uniform_int(0, 5));
      ASSERT_EQ(g.add_nodes(count), oracle.add_nodes(count));
    } else {
      Edge e{static_cast<NodeId>(rng.uniform_index(g.num_nodes())),
             static_cast<NodeId>(rng.uniform_index(g.num_nodes()))};
      if (hub && rng.flip(0.8)) (rng.flip(0.5) ? e.src : e.dst) = 0;
      if (rng.flip(loops)) e.dst = e.src;
      if (last.src != graph::kInvalidNode && rng.flip(parallel)) e = last;
      ASSERT_EQ(g.add_edge(e.src, e.dst), oracle.add_edge(e.src, e.dst));
      last = e;
    }
  }
}

TEST(Digraph, EmptyGraphsMatchOracle) {
  util::Rng rng(1);
  const graph::oracle::Digraph none;
  EXPECT_TRUE(same_graph(graph::Digraph(), none, rng));
  EXPECT_TRUE(same_graph(graph::Digraph(0), none, rng));
  EXPECT_TRUE(same_graph(graph::Digraph(0, {}), none, rng));
  EXPECT_TRUE(same_graph(graph::Digraph().reversed(), none.reversed(), rng));
  const graph::oracle::Digraph isolated(7);
  EXPECT_TRUE(same_graph(graph::Digraph(7), isolated, rng));
  EXPECT_TRUE(same_graph(graph::Digraph(7, {}), isolated, rng));
  EXPECT_TRUE(same_graph(graph::Digraph(7).reversed(), isolated.reversed(), rng));
}

TEST(Digraph, RandomInterleavingsMatchOracle) {
  util::Rng rng(20261019);
  for (int trial = 0; trial < 600; ++trial) {
    graph::Digraph g;
    graph::oracle::Digraph oracle;
    const bool hub = trial % 5 == 0;
    grow(g, oracle, rng, rng.uniform_int(0, hub ? 3000 : 300), hub, 0.15, 0.05);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string where = "trial " + std::to_string(trial);
    ASSERT_TRUE(same_graph(g, oracle, rng)) << where;
    ASSERT_TRUE(same_graph(graph::Digraph(g.num_nodes(), edge_list(oracle)), oracle, rng))
        << where << ", bulk";
    ASSERT_TRUE(same_graph(g.reversed(), oracle.reversed(), rng)) << where << ", reversed";

    // A copy and the original grow apart; the moved-to graph keeps growing.
    graph::Digraph copy = g;
    graph::oracle::Digraph oracle_copy = oracle;
    grow(copy, oracle_copy, rng, 50, hub, 0.15, 0.05);
    grow(g, oracle, rng, 50, false, 0.15, 0.05);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(same_graph(copy, oracle_copy, rng)) << where << ", copy";
    ASSERT_TRUE(same_graph(g, oracle, rng)) << where << ", original after the copy";
    graph::Digraph moved = std::move(copy);
    grow(moved, oracle_copy, rng, 50, false, 0.15, 0.05);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(same_graph(moved, oracle_copy, rng)) << where << ", moved";
  }
}

TEST(Digraph, BulkGraphsKeepGrowingLikeTheOracle) {
  // A packed graph has no slack: the first add_edge on any node moves its
  // run, including the last one and the empty ones at the end.
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    graph::oracle::Digraph oracle(static_cast<std::size_t>(rng.uniform_int(1, 30)));
    graph::Digraph scratch(oracle.num_nodes());
    grow(scratch, oracle, rng, rng.uniform_int(0, 120), trial % 4 == 0, 0.2, 0.1);
    if (::testing::Test::HasFatalFailure()) return;
    graph::Digraph g(oracle.num_nodes(), edge_list(oracle));
    grow(g, oracle, rng, 200, trial % 4 == 0, 0.2, 0.1);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(same_graph(g, oracle, rng)) << "trial " << trial;
  }
}

TEST(Digraph, HubOfThousandsOfEdges) {
  util::Rng rng(3);
  graph::Digraph g(50);
  graph::oracle::Digraph oracle(50);
  for (int k = 0; k < 6000; ++k) {
    const auto other = static_cast<NodeId>(rng.uniform_int(0, 49));
    const bool out = rng.flip(0.5);
    ASSERT_EQ(g.add_edge(out ? 0 : other, out ? other : 0),
              oracle.add_edge(out ? 0 : other, out ? other : 0));
  }
  EXPECT_TRUE(same_graph(g, oracle, rng));
  EXPECT_TRUE(same_graph(g.reversed(), oracle.reversed(), rng));
  EXPECT_TRUE(same_graph(graph::Digraph(50, edge_list(oracle)), oracle, rng));
}

TEST(Digraph, BadIdsThrowLikeTheOracle) {
  graph::Digraph g(3);
  graph::oracle::Digraph oracle(3);
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(oracle.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(g.add_edge(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)g.out_edges(3), std::invalid_argument);
  EXPECT_THROW((void)g.in_edges(-1), std::invalid_argument);
  EXPECT_THROW((void)g.edge(0), std::invalid_argument);
  EXPECT_THROW(graph::Digraph(2, {Edge{0, 2}}), std::invalid_argument);
  EXPECT_THROW(graph::Digraph(2, {Edge{-1, 0}}), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 0u);
}

// ---------------------------------------------------------------------------
// Expansions.

template <typename Run>
std::vector<mg::PlaceId> places(const Run& run) {
  return {run.begin(), run.end()};
}

::testing::AssertionResult same_expansion(const lis::LisGraph& lis, const lis::Expansion& x,
                                          const lis::oracle::Expansion& o) {
  const mg::MarkedGraph& g = x.graph;
  const mg::MarkedGraph& h = o.graph;
  if (g.num_transitions() != h.num_transitions() || g.num_places() != h.num_places()) {
    return ::testing::AssertionFailure() << "counts differ";
  }
  for (mg::TransitionId t = 0; t < static_cast<mg::TransitionId>(g.num_transitions()); ++t) {
    if (g.transition_kind(t) != h.transition_kind(t) ||
        g.transition_name(t) != h.transition_name(t)) {
      return ::testing::AssertionFailure()
             << "transition " << t << ": " << g.transition_name(t) << " vs "
             << h.transition_name(t);
    }
  }
  for (mg::PlaceId p = 0; p < static_cast<mg::PlaceId>(g.num_places()); ++p) {
    if (g.producer(p) != h.producer(p) || g.consumer(p) != h.consumer(p) ||
        g.tokens(p) != h.tokens(p) || g.place_kind(p) != h.place_kind(p)) {
      return ::testing::AssertionFailure() << "place " << p;
    }
  }
  if (g.marking() != h.marking()) return ::testing::AssertionFailure() << "markings differ";
  for (mg::TransitionId t = 0; t < static_cast<mg::TransitionId>(g.num_transitions()); ++t) {
    if (ids(g.structure().out_edges(t)) != ids(h.structure().out_edges(t)) ||
        ids(g.structure().in_edges(t)) != ids(h.structure().in_edges(t))) {
      return ::testing::AssertionFailure() << "adjacency of transition " << t;
    }
  }
  if (x.core_transition != o.core_transition ||
      x.core_output_transition != o.core_output_transition) {
    return ::testing::AssertionFailure() << "core transitions differ";
  }
  if (x.place_channel != o.place_channel) return ::testing::AssertionFailure() << "place_channel";
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    if (places(x.forward_places(c)) != o.forward_places[ci] ||
        places(x.backward_places(c)) != o.backward_places[ci] ||
        x.queue_place(c) != o.queue_place(c)) {
      return ::testing::AssertionFailure() << "places of channel " << c;
    }
  }
  for (mg::PlaceId p = 0; p < static_cast<mg::PlaceId>(g.num_places()); ++p) {
    const lis::ChannelId c = o.place_channel[static_cast<std::size_t>(p)];
    if (x.is_queue_place(p) != (c != graph::kInvalidEdge && o.queue_place(c) == p)) {
      return ::testing::AssertionFailure() << "is_queue_place(" << p << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_expansions(const lis::LisGraph& lis) {
  if (auto r = same_expansion(lis, lis::expand_ideal(lis), lis::oracle::expand_ideal(lis)); !r) {
    return r << " (G)";
  }
  if (auto r = same_expansion(lis, lis::expand_doubled(lis), lis::oracle::expand_doubled(lis));
      !r) {
    return r << " (d[G])";
  }
  return ::testing::AssertionSuccess();
}

TEST(Expansion, PaperSystemsCofdmAndCorpusMatchOracle) {
  for (const char* file : {"fig1.lis", "fig15.lis", "cofdm.lis"}) {
    EXPECT_TRUE(same_expansions(lis::load_netlist(std::string(LID_DATA_DIR) + "/" + file)))
        << file;
  }
  for (int i = 0; i < 20; ++i) {
    const std::string file = "corpus/sys" + std::to_string(i) + ".lis";
    EXPECT_TRUE(same_expansions(lis::load_netlist(std::string(LID_DATA_DIR) + "/" + file)))
        << file;
  }
  EXPECT_TRUE(same_expansions(soc::build_cofdm()));
  EXPECT_TRUE(same_expansions(lis::make_two_core_example()));
  EXPECT_TRUE(same_expansions(lis::make_two_core_example_sized()));
  EXPECT_TRUE(same_expansions(lis::make_two_core_example_balanced()));
  EXPECT_TRUE(same_expansions(lis::make_fig15_counterexample()));
  EXPECT_TRUE(same_expansions(lis::LisGraph()));
}

TEST(Expansion, PipelinedCoresMatchOracle) {
  // The builders of test_pipelined_cores: a pipelined sink, a two-core loop
  // through a core of latency 1-4, and generated systems whose cores get
  // latencies 2-4 at random.
  lis::LisGraph sink;
  const lis::CoreId a = sink.add_core("A");
  const lis::CoreId b = sink.add_core("B");
  sink.set_core_latency(b, 3);
  sink.add_channel(a, b);
  EXPECT_TRUE(same_expansions(sink));
  for (int latency = 1; latency <= 4; ++latency) {
    lis::LisGraph loop;
    const lis::CoreId x = loop.add_core("A");
    const lis::CoreId y = loop.add_core("B");
    loop.set_core_latency(y, latency);
    loop.add_channel(x, y);
    loop.add_channel(y, x);
    EXPECT_TRUE(same_expansions(loop)) << "latency " << latency;
  }
  for (const std::uint64_t seed : {81, 82, 83, 84}) {
    util::Rng rng(seed);
    for (int trial = 0; trial < 6; ++trial) {
      gen::GeneratorParams params;
      params.vertices = rng.uniform_int(3, 8);
      params.sccs = rng.uniform_int(1, 2);
      params.min_cycles = rng.uniform_int(0, 2);
      params.relay_stations = rng.uniform_int(0, 3);
      params.policy = gen::RsPolicy::kAny;
      lis::LisGraph system = gen::generate(params, rng);
      for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(system.num_cores()); ++v) {
        if (rng.flip(0.4)) system.set_core_latency(v, rng.uniform_int(2, 4));
      }
      EXPECT_TRUE(same_expansions(system)) << "seed " << seed << " trial " << trial;
    }
  }
}

/// A generated system of one of six shapes; a third of the general ones get
/// pipelined cores and some channels get queues of 0 to 3.
lis::LisGraph generated(int k, util::Rng& rng) {
  switch (k % 6) {
    case 0:
    case 1: {
      gen::GeneratorParams params;
      params.vertices = rng.uniform_int(2, 40);
      params.sccs = rng.uniform_int(1, std::max(1, params.vertices / 3));
      params.min_cycles = rng.uniform_int(0, 4);
      params.reconvergent = rng.uniform_int(0, 1) == 1;
      params.policy = params.sccs >= 2 && rng.uniform_int(0, 1) == 1 ? gen::RsPolicy::kScc
                                                                     : gen::RsPolicy::kAny;
      params.relay_stations = rng.uniform_int(0, 20);
      params.queue_capacity = rng.uniform_int(1, 2);
      lis::LisGraph lis = gen::generate(params, rng);
      if (k % 3 == 0) {
        for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
          if (rng.uniform_int(0, 3) == 0) lis.set_core_latency(v, rng.uniform_int(2, 5));
        }
      }
      for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
        if (rng.flip(0.1)) lis.set_queue_capacity(c, rng.uniform_int(0, 3));
      }
      return lis;
    }
    case 2: return gen::generate_tree(rng.uniform_int(2, 30), rng.uniform_int(0, 8), rng);
    case 3:
      return gen::generate_cactus(rng.uniform_int(1, 6), rng.uniform_int(2, 6),
                                  rng.uniform_int(0, 8), rng);
    case 4:
      return gen::generate_mesh(rng.uniform_int(1, 5), rng.uniform_int(1, 5),
                                rng.uniform_int(0, 8), rng);
    default:
      return gen::generate_torus(rng.uniform_int(2, 5), rng.uniform_int(2, 5),
                                 rng.uniform_int(0, 8), rng);
  }
}

TEST(Expansion, GeneratedSystemsMatchOracle) {
  util::Rng rng(20261019);
  for (int k = 0; k < 2400; ++k) {
    const lis::LisGraph lis = generated(k, rng);
    ASSERT_TRUE(same_expansions(lis)) << "generated #" << k;
  }
}

TEST(Expansion, MarkedGraphBulkConstructorChecksItsArrays) {
  using mg::MarkedGraph;
  using mg::PlaceKind;
  using mg::TransitionKind;
  const MarkedGraph g({TransitionKind::kShell, TransitionKind::kRelayStation}, {"a", ""},
                      {Edge{0, 1}, Edge{1, 0}}, {1, 2}, {PlaceKind::kForward, PlaceKind::kBackward});
  EXPECT_EQ(g.transition_name(0), "a");
  EXPECT_EQ(g.transition_name(1), "t1");  // as add_transition names it
  EXPECT_EQ(g.tokens(1), 2);
  EXPECT_EQ(g.place_kind(1), PlaceKind::kBackward);
  EXPECT_THROW(MarkedGraph({TransitionKind::kShell}, {}, {}, {}, {}), std::invalid_argument);
  EXPECT_THROW(MarkedGraph({TransitionKind::kShell}, {"a"}, {Edge{0, 0}}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW(MarkedGraph({TransitionKind::kShell}, {"a"}, {Edge{0, 0}}, {-1},
                           {PlaceKind::kForward}),
               std::invalid_argument);
  EXPECT_THROW(MarkedGraph({TransitionKind::kShell}, {"a"}, {Edge{0, 1}}, {0},
                           {PlaceKind::kForward}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lid
