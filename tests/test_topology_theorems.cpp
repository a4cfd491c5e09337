// Property tests for the paper's topology theorems (Sec. IV / Table II):
//   * trees never degrade with q = 1,
//   * cactus SCCs (no reconvergent paths) never degrade with q = 1,
//   * networks of cactus SCCs never degrade with q = 1,
//   * q = r + 1 always suffices (r = total relay stations),
//   * general topologies can and do degrade.
// The topology predicates are also compared with the biconnected
// decomposition they replaced (topology_oracle.*).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/fixed_qs.hpp"
#include "gen/generator.hpp"
#include "graph/topology.hpp"
#include "graph/scc.hpp"
#include "lis/lis_graph.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "topology_oracle.hpp"
#include "util/rng.hpp"

namespace lid {
namespace {

using util::Rational;

class TreeTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeTheorem, TreesNeverDegradeWithUnitQueues) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const lis::LisGraph lis =
        gen::generate_tree(rng.uniform_int(2, 20), rng.uniform_int(0, 8), rng);
    ASSERT_EQ(graph::classify(lis.structure()), graph::TopologyClass::kTree);
    EXPECT_EQ(lis::ideal_mst(lis), Rational(1));
    EXPECT_EQ(lis::practical_mst(lis), Rational(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeTheorem, ::testing::Values(1, 2, 3, 4));

class CactusTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CactusTheorem, CactusSccsNeverDegradeWithUnitQueues) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const lis::LisGraph lis = gen::generate_cactus(rng.uniform_int(1, 5),
                                                   rng.uniform_int(2, 6),
                                                   rng.uniform_int(0, 6), rng);
    const graph::TopologyClass cls = graph::classify(lis.structure());
    ASSERT_EQ(cls, graph::TopologyClass::kCactusScc);
    // The claim: θ(d[G]) = θ(G) with q = 1, whatever the relay stations did
    // to the ideal MST.
    EXPECT_EQ(lis::practical_mst(lis), lis::ideal_mst(lis));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CactusTheorem, ::testing::Values(10, 20, 30, 40));

class NetworkTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkTheorem, NetworksOfCactusSccsNeverDegradeWithUnitQueues) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    // Build several cacti and join them with a random arborescence (no
    // reconvergent inter-SCC paths).
    const int k = rng.uniform_int(2, 4);
    lis::LisGraph lis;
    std::vector<std::vector<lis::CoreId>> groups;
    for (int g = 0; g < k; ++g) {
      const lis::LisGraph cactus = gen::generate_cactus(rng.uniform_int(1, 3),
                                                        rng.uniform_int(2, 4), 0, rng);
      std::vector<lis::CoreId> members;
      const auto base = static_cast<lis::CoreId>(lis.num_cores());
      for (std::size_t v = 0; v < cactus.num_cores(); ++v) {
        members.push_back(lis.add_core());
      }
      for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(cactus.num_channels()); ++c) {
        const lis::Channel& ch = cactus.channel(c);
        lis.add_channel(base + ch.src, base + ch.dst);
      }
      groups.push_back(std::move(members));
    }
    std::vector<lis::ChannelId> inter;
    for (int g = 1; g < k; ++g) {
      const int parent = rng.uniform_int(0, g - 1);
      inter.push_back(lis.add_channel(rng.pick(groups[static_cast<std::size_t>(parent)]),
                                      rng.pick(groups[static_cast<std::size_t>(g)])));
    }
    // Relay stations anywhere (the theorem does not restrict them).
    for (int r = rng.uniform_int(0, 5); r > 0; --r) {
      const auto ch = static_cast<lis::ChannelId>(rng.uniform_index(lis.num_channels()));
      lis.set_relay_stations(ch, lis.channel(ch).relay_stations + 1);
    }
    ASSERT_EQ(graph::classify(lis.structure()),
              graph::TopologyClass::kNetworkOfCactusSccs);
    EXPECT_EQ(lis::practical_mst(lis), lis::ideal_mst(lis));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkTheorem, ::testing::Values(100, 200, 300));

class RPlusOneBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RPlusOneBound, FixedQueuesOfRPlusOneAlwaysSuffice) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(6, 16);
    params.sccs = rng.uniform_int(1, 4);
    params.min_cycles = rng.uniform_int(0, 3);
    params.relay_stations = rng.uniform_int(0, 6);
    params.reconvergent = true;
    params.policy = rng.flip(0.5) ? gen::RsPolicy::kAny : gen::RsPolicy::kScc;
    lis::LisGraph lis;
    try {
      lis = gen::generate(params, rng);
    } catch (const std::invalid_argument&) {
      continue;
    }
    const int r = lis.total_relay_stations();
    EXPECT_GE(core::fixed_qs_mst(lis, r + 1), lis::ideal_mst(lis))
        << "q = r + 1 failed on a generated system";
    // Monotonicity: larger fixed queues never hurt.
    Rational prev(0);
    for (int q = 1; q <= r + 1; ++q) {
      const Rational mst = core::fixed_qs_mst(lis, q);
      EXPECT_GE(mst, prev);
      prev = mst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RPlusOneBound, ::testing::Values(11, 22, 33, 44));

TEST(SingleRelayStation, QTwoNeverDegrades) {
  // Sec. IX's closing observation: one relay station in an arbitrary system
  // with q = 2 never causes throughput degradation.
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(5, 14);
    params.sccs = rng.uniform_int(1, 3);
    params.min_cycles = rng.uniform_int(0, 3);
    params.relay_stations = 1;
    params.policy = rng.flip(0.5) ? gen::RsPolicy::kAny : gen::RsPolicy::kScc;
    lis::LisGraph lis;
    try {
      lis = gen::generate(params, rng);
    } catch (const std::invalid_argument&) {
      continue;
    }
    EXPECT_GE(core::fixed_qs_mst(lis, 2), lis::ideal_mst(lis));
  }
}

/// classify() as its definition reads: each predicate on its own
/// biconnected decomposition.
graph::TopologyClass classify_by_definition(const graph::Digraph& g) {
  if (graph::is_underlying_forest(g)) return graph::TopologyClass::kTree;
  if (graph::has_reconvergent_paths(g)) return graph::TopologyClass::kGeneral;
  return graph::is_strongly_connected(g) ? graph::TopologyClass::kCactusScc
                                         : graph::TopologyClass::kNetworkOfCactusSccs;
}

TEST(Classify, OneDecompositionMatchesTheDefinition) {
  std::map<graph::TopologyClass, int> seen;
  const auto check = [&](const lis::LisGraph& lis, const std::string& name) {
    const graph::TopologyClass c = graph::classify(lis.structure());
    EXPECT_EQ(c, classify_by_definition(lis.structure())) << name;
    ++seen[c];
  };
  for (int i = 0; i < 20; ++i) {
    const std::string file = "sys" + std::to_string(i) + ".lis";
    check(lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + file), file);
  }
  for (const char* file : {"fig1.lis", "fig15.lis", "cofdm.lis"}) {
    check(lis::load_netlist(std::string(LID_DATA_DIR) + "/" + file), file);
  }
  util::Rng rng(21);
  for (int k = 0; k < 400; ++k) {
    const std::string name = "generated #" + std::to_string(k);
    switch (k % 4) {
      case 0: {
        gen::GeneratorParams params;
        params.vertices = rng.uniform_int(1, 30);
        params.sccs = rng.uniform_int(1, params.vertices);
        params.min_cycles = rng.uniform_int(0, 3);
        params.reconvergent = rng.uniform_int(0, 1) == 1;
        params.policy = gen::RsPolicy::kAny;
        params.relay_stations = params.vertices > 1 ? rng.uniform_int(0, 5) : 0;
        check(gen::generate(params, rng), name);
        break;
      }
      case 1: check(gen::generate_tree(rng.uniform_int(1, 20), 0, rng), name); break;
      case 2:
        check(gen::generate_cactus(rng.uniform_int(1, 5), rng.uniform_int(2, 5), 0, rng), name);
        break;
      default:
        check(gen::generate_mesh(rng.uniform_int(1, 4), rng.uniform_int(1, 4), 0, rng), name);
    }
  }
  // Every class shows up, so each branch of classify() was compared.
  EXPECT_EQ(seen.size(), 4U);
}

/// Every topology predicate on `g`, and scc_is_cactus on each of g's SCCs,
/// agrees with the oracle.
void expect_same_topology(const graph::Digraph& g, const std::string& name) {
  namespace oracle = graph::topology_oracle;
  EXPECT_EQ(graph::classify(g), oracle::classify(g)) << name;
  EXPECT_EQ(graph::is_underlying_forest(g), oracle::is_underlying_forest(g)) << name;
  EXPECT_EQ(graph::has_reconvergent_paths(g), oracle::has_reconvergent_paths(g)) << name;
  EXPECT_EQ(graph::articulation_points(g), oracle::articulation_points(g)) << name;
  for (const auto& members : graph::scc(g).members) {
    EXPECT_EQ(graph::scc_is_cactus(g, members), oracle::scc_is_cactus(g, members)) << name;
  }
}

/// A random multigraph with parallel edges and self-loops.
graph::Digraph random_multigraph(util::Rng& rng) {
  const int n = rng.uniform_int(1, 14);
  std::vector<graph::Edge> edges;
  const int m = rng.uniform_int(0, 2 * n);
  for (int i = 0; i < m; ++i) {
    edges.push_back({rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1)});
  }
  return graph::Digraph(static_cast<std::size_t>(n), std::move(edges));
}

TEST(Classify, MatchesTheOracle) {
  std::map<graph::TopologyClass, int> seen;
  const auto check = [&](const lis::LisGraph& lis, const std::string& name) {
    expect_same_topology(lis.structure(), name);
    ++seen[graph::classify(lis.structure())];
  };
  for (int i = 0; i < 20; ++i) {
    const std::string file = "sys" + std::to_string(i) + ".lis";
    check(lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + file), file);
  }
  for (const char* file : {"fig1.lis", "fig15.lis", "cofdm.lis"}) {
    check(lis::load_netlist(std::string(LID_DATA_DIR) + "/" + file), file);
  }
  check(lis::make_two_core_example(), "two-core example");
  check(lis::make_fig15_counterexample(), "fig15 counterexample");
  util::Rng rng(24);
  for (int k = 0; k < 2400; ++k) {
    const std::string name = "generated #" + std::to_string(k);
    switch (k % 6) {
      case 0:
      case 1: {
        gen::GeneratorParams params;
        params.vertices = rng.uniform_int(1, 40);
        params.sccs = rng.uniform_int(1, params.vertices);
        params.min_cycles = rng.uniform_int(0, 3);
        params.reconvergent = rng.uniform_int(0, 1) == 1;
        params.policy = gen::RsPolicy::kAny;
        params.relay_stations = params.vertices > 1 ? rng.uniform_int(0, 5) : 0;
        check(gen::generate(params, rng), name);
        break;
      }
      case 2: check(gen::generate_tree(rng.uniform_int(1, 30), 0, rng), name); break;
      case 3:
        check(gen::generate_cactus(rng.uniform_int(1, 6), rng.uniform_int(2, 6), 0, rng), name);
        break;
      case 4:
        check(gen::generate_mesh(rng.uniform_int(1, 5), rng.uniform_int(1, 5), 0, rng), name);
        break;
      default:
        check(gen::generate_torus(rng.uniform_int(2, 5), rng.uniform_int(2, 5), 0, rng), name);
    }
    if (::testing::Test::HasFailure()) return;
  }
  for (int k = 0; k < 600; ++k) {
    expect_same_topology(random_multigraph(rng), "multigraph #" + std::to_string(k));
    if (::testing::Test::HasFailure()) return;
  }
  // Every class shows up, so each branch of classify() was compared.
  EXPECT_EQ(seen.size(), 4U);
  for (const auto& [c, count] : seen) EXPECT_GE(count, 20) << graph::to_string(c);
}

TEST(GeneralTopology, CanDegrade) {
  // The two-core example is the canonical general-topology degradation.
  const lis::LisGraph lis = lis::make_two_core_example();
  EXPECT_EQ(graph::classify(lis.structure()), graph::TopologyClass::kGeneral);
  EXPECT_LT(lis::practical_mst(lis), lis::ideal_mst(lis));
}

TEST(FixedQs, SweepIsWellFormed) {
  const auto points = core::fixed_qs_sweep(lis::make_two_core_example(), 4);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].q, 1);
  EXPECT_EQ(points[0].mst, Rational(2, 3));
  EXPECT_NEAR(points[0].fraction_of_ideal, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(points[1].mst, Rational(1));
  EXPECT_NEAR(points[3].fraction_of_ideal, 1.0, 1e-12);
}

}  // namespace
}  // namespace lid
