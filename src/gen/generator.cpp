#include "gen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/split.hpp"

namespace lid::gen {
namespace {

using lis::ChannelId;
using lis::CoreId;
using lis::LisGraph;
using util::Rng;

/// Random partition of `vertices` cores into `sccs` groups, each of size at
/// least min(2, floor(vertices / sccs)) so every group can host a cycle when
/// the budget allows it.
std::vector<std::vector<CoreId>> partition_vertices(int vertices, int sccs, Rng& rng) {
  const int base = std::max(1, std::min(2, vertices / sccs));
  std::vector<int> sizes(static_cast<std::size_t>(sccs), base);
  int remaining = vertices - base * sccs;
  LID_ENSURE(remaining >= 0, "generator: vertices must be at least the SCC count");
  while (remaining > 0) {
    sizes[rng.uniform_index(sizes.size())] += 1;
    --remaining;
  }
  std::vector<CoreId> ids(static_cast<std::size_t>(vertices));
  std::iota(ids.begin(), ids.end(), 0);
  rng.shuffle(ids);
  std::vector<std::vector<CoreId>> groups;
  std::size_t next = 0;
  for (const int size : sizes) {
    groups.emplace_back(ids.begin() + static_cast<std::ptrdiff_t>(next),
                        ids.begin() + static_cast<std::ptrdiff_t>(next + size));
    next += static_cast<std::size_t>(size);
  }
  return groups;
}

/// Adds a rows × cols grid of cores, row by row, named "n<row>_<col>".
void add_grid_cores(LisGraph& lis, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      std::string name(1, 'n');
      util::append_decimal(name, r);
      name.push_back('_');
      util::append_decimal(name, c);
      lis.add_core(std::move(name));
    }
  }
}

}  // namespace

LisGraph generate(const GeneratorParams& params, Rng& rng) {
  LID_ENSURE(params.vertices >= 1, "generator: need at least one vertex");
  LID_ENSURE(params.sccs >= 1 && params.sccs <= params.vertices,
             "generator: SCC count must be in [1, vertices]");
  LID_ENSURE(params.min_cycles >= 0, "generator: negative cycle count");
  LID_ENSURE(params.relay_stations >= 0, "generator: negative relay-station count");
  LID_ENSURE(params.queue_capacity >= 1, "generator: queue capacity must be at least 1");

  LisGraph lis;
  for (int v = 0; v < params.vertices; ++v) lis.add_core();

  // Step 1: partition into SCCs.
  const std::vector<std::vector<CoreId>> groups =
      partition_vertices(params.vertices, params.sccs, rng);

  // Step 2: per SCC a Hamiltonian cycle plus `min_cycles` chords.
  std::set<std::pair<CoreId, CoreId>> used;
  std::vector<ChannelId> intra_channels;
  for (const auto& members : groups) {
    const std::size_t n = members.size();
    if (n >= 2) {
      for (std::size_t i = 0; i < n; ++i) {
        const CoreId u = members[i];
        const CoreId v = members[(i + 1) % n];
        intra_channels.push_back(lis.add_channel(u, v, 0, params.queue_capacity));
        used.emplace(u, v);
      }
    }
    // Chords: (u, v) pairs not yet used; each adds at least one new cycle.
    const std::size_t max_chords = n >= 2 ? n * (n - 1) - n : 0;
    int to_add = std::min<int>(params.min_cycles, static_cast<int>(max_chords));
    int attempts = 0;
    while (to_add > 0 && attempts < 1000) {
      ++attempts;
      const CoreId u = rng.pick(members);
      const CoreId v = rng.pick(members);
      if (u == v || used.count({u, v}) > 0) continue;
      intra_channels.push_back(lis.add_channel(u, v, 0, params.queue_capacity));
      used.emplace(u, v);
      --to_add;
    }
  }

  // Step 3: connected acyclic auxiliary graph over the SCCs. A random
  // topological order plus a random arborescence guarantees both; extra
  // forward edges create reconvergent inter-SCC paths when allowed.
  std::vector<int> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<std::pair<int, int>> aux_edges;  // (scc index, scc index)
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t j = rng.uniform_index(i);
    aux_edges.emplace_back(order[j], order[i]);
  }
  if (params.reconvergent && groups.size() >= 2) {
    // Matches the paper's observed inter-SCC edge counts (~s/3 extra edges
    // beyond the spanning arborescence; Table IV reports 12 inter-SCC edges
    // for s = 10 and ~24.7 for s = 20).
    const int extra = static_cast<int>(std::lround(0.3 * static_cast<double>(groups.size())));
    std::set<std::pair<int, int>> aux_used(aux_edges.begin(), aux_edges.end());
    int attempts = 0;
    int added = 0;
    while (added < extra && attempts < 1000) {
      ++attempts;
      std::size_t a = rng.uniform_index(order.size());
      std::size_t b = rng.uniform_index(order.size());
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      const std::pair<int, int> e{order[a], order[b]};
      if (aux_used.count(e) > 0) continue;
      aux_used.insert(e);
      aux_edges.push_back(e);
      ++added;
    }
  }

  // Step 4: one channel per auxiliary edge between random member vertices.
  std::vector<ChannelId> inter_channels;
  for (const auto& [s1, s2] : aux_edges) {
    const CoreId u = rng.pick(groups[static_cast<std::size_t>(s1)]);
    const CoreId v = rng.pick(groups[static_cast<std::size_t>(s2)]);
    inter_channels.push_back(lis.add_channel(u, v, 0, params.queue_capacity));
  }

  // Step 5: distribute relay stations under the chosen policy.
  const std::vector<ChannelId>* eligible = nullptr;
  std::vector<ChannelId> all_channels;
  if (params.policy == RsPolicy::kScc) {
    eligible = &inter_channels;
  } else {
    all_channels = intra_channels;
    all_channels.insert(all_channels.end(), inter_channels.begin(), inter_channels.end());
    eligible = &all_channels;
  }
  if (params.relay_stations > 0) {
    LID_ENSURE(!eligible->empty(), "generator: no eligible channel for relay stations");
    for (int r = 0; r < params.relay_stations; ++r) {
      const ChannelId ch = rng.pick(*eligible);
      lis.set_relay_stations(ch, lis.channel(ch).relay_stations + 1);
    }
  }
  return lis;
}

LisGraph generate_tree(int vertices, int relay_stations, Rng& rng) {
  LID_ENSURE(vertices >= 1, "generate_tree: need at least one vertex");
  LID_ENSURE(relay_stations >= 0, "generate_tree: negative relay-station count");
  LisGraph lis;
  lis.add_core();
  for (int v = 1; v < vertices; ++v) {
    lis.add_core();
    const auto parent = static_cast<CoreId>(rng.uniform_index(static_cast<std::size_t>(v)));
    lis.add_channel(parent, static_cast<CoreId>(v));
  }
  for (int r = 0; r < relay_stations && lis.num_channels() > 0; ++r) {
    const auto ch = static_cast<ChannelId>(rng.uniform_index(lis.num_channels()));
    lis.set_relay_stations(ch, lis.channel(ch).relay_stations + 1);
  }
  return lis;
}

LisGraph generate_cactus(int cycles, int max_cycle_len, int relay_stations, Rng& rng) {
  LID_ENSURE(cycles >= 1, "generate_cactus: need at least one cycle");
  LID_ENSURE(max_cycle_len >= 2, "generate_cactus: cycles need length at least 2");
  LID_ENSURE(relay_stations >= 0, "generate_cactus: negative relay-station count");
  LisGraph lis;
  // Seed cycle.
  const int first_len = rng.uniform_int(2, max_cycle_len);
  std::vector<CoreId> nodes;
  for (int i = 0; i < first_len; ++i) nodes.push_back(lis.add_core());
  for (int i = 0; i < first_len; ++i) {
    lis.add_channel(nodes[static_cast<std::size_t>(i)],
                    nodes[static_cast<std::size_t>((i + 1) % first_len)]);
  }
  // Attach further cycles at articulation points.
  for (int c = 1; c < cycles; ++c) {
    const CoreId anchor = rng.pick(nodes);
    const int len = rng.uniform_int(2, max_cycle_len);
    CoreId prev = anchor;
    for (int i = 1; i < len; ++i) {
      const CoreId fresh = lis.add_core();
      nodes.push_back(fresh);
      lis.add_channel(prev, fresh);
      prev = fresh;
    }
    lis.add_channel(prev, anchor);
  }
  for (int r = 0; r < relay_stations; ++r) {
    const auto ch = static_cast<ChannelId>(rng.uniform_index(lis.num_channels()));
    lis.set_relay_stations(ch, lis.channel(ch).relay_stations + 1);
  }
  return lis;
}

LisGraph generate_mesh(int rows, int cols, int relay_stations, Rng& rng) {
  LID_ENSURE(rows >= 1 && cols >= 1, "generate_mesh: dimensions must be positive");
  LID_ENSURE(relay_stations >= 0, "generate_mesh: negative relay-station count");
  LisGraph lis;
  const auto node = [&](int r, int c) { return static_cast<CoreId>(r * cols + c); };
  add_grid_cores(lis, rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        lis.add_channel(node(r, c), node(r, c + 1));
        lis.add_channel(node(r, c + 1), node(r, c));
      }
      if (r + 1 < rows) {
        lis.add_channel(node(r, c), node(r + 1, c));
        lis.add_channel(node(r + 1, c), node(r, c));
      }
    }
  }
  for (int i = 0; i < relay_stations && lis.num_channels() > 0; ++i) {
    const auto ch = static_cast<ChannelId>(rng.uniform_index(lis.num_channels()));
    lis.set_relay_stations(ch, lis.channel(ch).relay_stations + 1);
  }
  return lis;
}

LisGraph generate_torus(int rows, int cols, int relay_stations, Rng& rng) {
  LID_ENSURE(rows >= 2 && cols >= 2, "generate_torus: dimensions must be at least 2");
  LID_ENSURE(relay_stations >= 0, "generate_torus: negative relay-station count");
  LisGraph lis;
  const auto node = [&](int r, int c) {
    return static_cast<CoreId>(((r + rows) % rows) * cols + (c + cols) % cols);
  };
  add_grid_cores(lis, rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      lis.add_channel(node(r, c), node(r, c + 1));  // east
      lis.add_channel(node(r, c), node(r + 1, c));  // south
    }
  }
  for (int i = 0; i < relay_stations; ++i) {
    const auto ch = static_cast<ChannelId>(rng.uniform_index(lis.num_channels()));
    lis.set_relay_stations(ch, lis.channel(ch).relay_stations + 1);
  }
  return lis;
}

}  // namespace lid::gen
