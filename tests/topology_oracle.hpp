// Topology classification as it was before the flat biconnected
// decomposition: an undirected view with one heap vector per node, one edge
// vector per biconnected component and two std::maps per directed-cycle
// test. The bodies are kept verbatim, renamespaced (one call qualified), as
// the oracle that test_topology_theorems compares graph::classify,
// is_underlying_forest, has_reconvergent_paths, scc_is_cactus and
// articulation_points against.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "graph/topology.hpp"

namespace lid::graph::topology_oracle {

bool is_underlying_forest(const Digraph& g);
bool has_reconvergent_paths(const Digraph& g);
bool scc_is_cactus(const Digraph& g, const std::vector<NodeId>& members);
TopologyClass classify(const Digraph& g);
std::vector<NodeId> articulation_points(const Digraph& g);

}  // namespace lid::graph::topology_oracle
