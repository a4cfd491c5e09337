#include "npc/vc_reduction.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"
#include "util/split.hpp"

namespace lid::npc {

VcInstance random_vc(int vertices, double edge_prob, util::Rng& rng) {
  LID_ENSURE(vertices >= 1, "random_vc: need at least one vertex");
  LID_ENSURE(edge_prob >= 0.0 && edge_prob <= 1.0, "random_vc: probability out of range");
  VcInstance instance;
  instance.vertices = vertices;
  for (int u = 0; u < vertices; ++u) {
    for (int v = u + 1; v < vertices; ++v) {
      if (rng.flip(edge_prob)) instance.edges.emplace_back(u, v);
    }
  }
  return instance;
}

int min_vertex_cover(const VcInstance& instance) {
  LID_ENSURE(instance.vertices >= 0, "min_vertex_cover: negative vertex count");
  for (const auto& [u, v] : instance.edges) {
    LID_ENSURE(u >= 0 && v < instance.vertices && u < v, "min_vertex_cover: bad edge");
  }
  // Branch and bound on the classic "pick an uncovered edge; one endpoint
  // must join the cover" dichotomy.
  int best = instance.vertices;  // taking everything always covers
  std::vector<char> in_cover(static_cast<std::size_t>(instance.vertices), 0);
  const std::function<void(int)> recurse = [&](int used) {
    if (used >= best) return;
    const auto uncovered =
        std::find_if(instance.edges.begin(), instance.edges.end(), [&](const auto& e) {
          return !in_cover[static_cast<std::size_t>(e.first)] &&
                 !in_cover[static_cast<std::size_t>(e.second)];
        });
    if (uncovered == instance.edges.end()) {
      best = used;
      return;
    }
    for (const int pick : {uncovered->first, uncovered->second}) {
      in_cover[static_cast<std::size_t>(pick)] = 1;
      recurse(used + 1);
      in_cover[static_cast<std::size_t>(pick)] = 0;
    }
  };
  recurse(0);
  return best;
}

int min_dominating_set(const VcInstance& instance) {
  LID_ENSURE(instance.vertices >= 1, "min_dominating_set: empty graph");
  const auto n = static_cast<std::size_t>(instance.vertices);
  // Closed neighbourhood bitmasks (n <= 20 is plenty for validation).
  LID_ENSURE(instance.vertices <= 20, "min_dominating_set: instance too large");
  std::vector<unsigned> closed(n, 0);
  for (std::size_t v = 0; v < n; ++v) closed[v] = 1u << v;
  for (const auto& [u, v] : instance.edges) {
    closed[static_cast<std::size_t>(u)] |= 1u << v;
    closed[static_cast<std::size_t>(v)] |= 1u << u;
  }
  const unsigned all = (instance.vertices == 32) ? ~0u : (1u << instance.vertices) - 1u;
  int best = instance.vertices;
  // Branch and bound on the lowest undominated vertex: one of its closed
  // neighbourhood must join the set.
  const std::function<void(unsigned, int)> recurse = [&](unsigned dominated, int used) {
    if (used >= best) return;
    if (dominated == all) {
      best = used;
      return;
    }
    std::size_t v = 0;
    while (dominated >> v & 1u) ++v;
    for (std::size_t candidate = 0; candidate < n; ++candidate) {
      if ((closed[candidate] >> v & 1u) == 0) continue;  // must dominate v
      recurse(dominated | closed[candidate], used + 1);
    }
  };
  recurse(0, 0);
  return best;
}

core::TdInstance reduce_dominating_set_to_td(const VcInstance& instance) {
  LID_ENSURE(instance.vertices >= 1, "reduce_dominating_set_to_td: empty graph");
  core::TdInstance td;
  // One cycle per vertex (deficit 1: "dominate me"), one set per vertex
  // containing its closed neighbourhood's cycles (placing weight on set v =
  // putting v into the dominating set).
  td.deficits.assign(static_cast<std::size_t>(instance.vertices), 1);
  td.set_members.resize(static_cast<std::size_t>(instance.vertices));
  for (int v = 0; v < instance.vertices; ++v) {
    td.set_members[static_cast<std::size_t>(v)].push_back(v);
  }
  for (const auto& [u, v] : instance.edges) {
    td.set_members[static_cast<std::size_t>(u)].push_back(v);
    td.set_members[static_cast<std::size_t>(v)].push_back(u);
  }
  for (auto& members : td.set_members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  return td;
}

QsReduction reduce_vc_to_qs(const VcInstance& instance) {
  LID_ENSURE(instance.vertices >= 1, "reduce_vc_to_qs: empty VC instance");
  QsReduction out;

  // Vertex constructs: a_v -> b_v.
  std::vector<lis::CoreId> a(static_cast<std::size_t>(instance.vertices));
  std::vector<lis::CoreId> b(static_cast<std::size_t>(instance.vertices));
  for (int v = 0; v < instance.vertices; ++v) {
    std::string name(1, 'a');
    util::append_decimal(name, v);
    a[static_cast<std::size_t>(v)] = out.lis.add_core(name);
    name[0] = 'b';
    b[static_cast<std::size_t>(v)] = out.lis.add_core(std::move(name));
    out.vertex_construct.push_back(
        out.lis.add_channel(a[static_cast<std::size_t>(v)], b[static_cast<std::size_t>(v)]));
  }

  // Edge constructs: two crossed channels with one relay station each. Every
  // transition stays a pure source (a_*) or pure sink (b_*) of forward edges.
  for (const auto& [u, v] : instance.edges) {
    const lis::ChannelId uv = out.lis.add_channel(a[static_cast<std::size_t>(u)],
                                                  b[static_cast<std::size_t>(v)], 1);
    const lis::ChannelId vu = out.lis.add_channel(a[static_cast<std::size_t>(v)],
                                                  b[static_cast<std::size_t>(u)], 1);
    out.cross_channels.emplace_back(uv, vu);
  }

  // Limiter ring (Fig. 10): five shells in a directed cycle with one relay
  // station — six places, five tokens — pins the ideal MST to 5/6.
  std::vector<lis::CoreId> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(out.lis.add_core("limit" + std::to_string(i)));
  for (int i = 0; i < 5; ++i) {
    out.lis.add_channel(ring[static_cast<std::size_t>(i)],
                        ring[static_cast<std::size_t>((i + 1) % 5)], i == 0 ? 1 : 0);
  }
  return out;
}

}  // namespace lid::npc
