#include "core/qs_problem.hpp"

#include <algorithm>
#include <map>

#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "mg/mcm.hpp"

namespace lid::core {
namespace {

using lis::ChannelId;
using lis::LisGraph;
using util::Rational;

/// The SCC-collapsed LIS plus the map back to original channels, written
/// into a QsBuildTarget (`part` is the SCC partition of lis.structure()).
void collapse_sccs(const LisGraph& lis, const graph::SccPartition& part, QsBuildTarget& out) {
  for (int c = 0; c < part.count; ++c) {
    out.collapsed.add_core("scc" + std::to_string(c));
  }
  for (ChannelId ch = 0; ch < static_cast<ChannelId>(lis.num_channels()); ++ch) {
    const lis::Channel& channel = lis.channel(ch);
    const int cs = part.comp_of[static_cast<std::size_t>(channel.src)];
    const int cd = part.comp_of[static_cast<std::size_t>(channel.dst)];
    if (cs == cd) continue;
    out.collapsed.add_channel(static_cast<lis::CoreId>(cs), static_cast<lis::CoreId>(cd),
                              channel.relay_stations, channel.queue_capacity);
    out.channel_origin.push_back(ch);
  }
}

/// True when every core has unit latency. The collapse rebuilds SCCs as
/// single plain cores, so pipelined cores (whose internal stages create
/// additional zero-token places and cycles) must disable it.
bool all_cores_unit_latency(const LisGraph& lis) {
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
    if (lis.core_latency(v) != 1) return false;
  }
  return true;
}

/// True when all intra-SCC channels have unit queues (required for the
/// collapse to preserve deficits exactly; see header).
bool intra_scc_queues_are_unit(const LisGraph& lis, const graph::SccPartition& part) {
  for (ChannelId ch = 0; ch < static_cast<ChannelId>(lis.num_channels()); ++ch) {
    const lis::Channel& channel = lis.channel(ch);
    const int cs = part.comp_of[static_cast<std::size_t>(channel.src)];
    const int cd = part.comp_of[static_cast<std::size_t>(channel.dst)];
    if (cs == cd && channel.queue_capacity != 1) return false;
  }
  return true;
}

bool relay_stations_only_between(const LisGraph& lis, const graph::SccPartition& part) {
  for (ChannelId ch = 0; ch < static_cast<ChannelId>(lis.num_channels()); ++ch) {
    const lis::Channel& channel = lis.channel(ch);
    if (channel.relay_stations == 0) continue;
    const int cs = part.comp_of[static_cast<std::size_t>(channel.src)];
    const int cd = part.comp_of[static_cast<std::size_t>(channel.dst)];
    if (cs == cd) return false;
  }
  return true;
}

}  // namespace

std::int64_t cycle_deficit(std::int64_t tokens, std::int64_t places, const Rational& theta) {
  // ceil(theta.num * places / theta.den) - tokens, clamped at 0.
  const std::int64_t needed = (theta.num() * places + theta.den() - 1) / theta.den();
  return std::max<std::int64_t>(0, needed - tokens);
}

QsBuildTarget select_build_target(const LisGraph& lis, const QsBuildOptions& options) {
  QsBuildTarget target;
  // Simplification 4: collapse SCCs when relay stations sit only between
  // them (and intra-SCC queues are unit, so deficits are preserved exactly).
  if (!options.allow_scc_collapse || !all_cores_unit_latency(lis)) return target;
  const graph::SccPartition part = graph::scc(lis.structure());
  if (relay_stations_only_between(lis, part) && intra_scc_queues_are_unit(lis, part)) {
    collapse_sccs(lis, part, target);
    if (target.collapsed.num_cores() < lis.num_cores()) {
      target.collapsed_used = true;
    } else {
      target.collapsed = LisGraph();
      target.channel_origin.clear();
    }
  }
  return target;
}

bool relay_stations_only_between_sccs(const LisGraph& lis) {
  return relay_stations_only_between(lis, graph::scc(lis.structure()));
}

QsProblem build_qs_problem(const LisGraph& lis, const QsBuildOptions& options) {
  return build_qs_problem_with_mst(lis, lis::ideal_mst(lis), lis::practical_mst(lis), options);
}

QsProblem build_qs_problem_with_mst(const LisGraph& lis, const Rational& theta_ideal,
                                    const Rational& theta_practical,
                                    const QsBuildOptions& options) {
  QsProblem problem;
  problem.theta_ideal = theta_ideal;
  problem.theta_practical = theta_practical;
  problem.theta_target = (options.target_mst > Rational(0))
                             ? Rational::min(options.target_mst, problem.theta_ideal)
                             : problem.theta_ideal;
  if (!problem.has_degradation()) return problem;

  const QsBuildTarget build_target = select_build_target(lis, options);
  problem.scc_collapsed = build_target.collapsed_used;
  const LisGraph& target = build_target.graph(lis);

  const lis::Expansion expansion = lis::expand_doubled(target);
  const mg::MarkedGraph& dg = expansion.graph;

  // Candidate channel -> TD set index, assigned on first sighting.
  std::map<ChannelId, int> set_of_channel;
  std::vector<ChannelId> target_channels;

  struct RawCycle {
    std::int64_t deficit;
    std::vector<ChannelId> queue_channels;
  };
  std::vector<RawCycle> raw;

  const Rational theta = problem.theta_target;
  const auto on_cycle = [&](const graph::Cycle& cycle) {
    problem.cycles_enumerated += 1;
    // Simplification 1: a degrading cycle needs a backedge and a relay-
    // station output place (the only zero-token forward places).
    bool has_back = false;
    bool has_zero_forward = false;
    std::int64_t tokens = 0;
    for (const graph::EdgeId p : cycle) {
      const std::int64_t tok = dg.tokens(p);
      tokens += tok;
      if (dg.place_kind(p) == mg::PlaceKind::kBackward) {
        has_back = true;
      } else if (tok == 0) {
        has_zero_forward = true;
      }
    }
    if (has_back && has_zero_forward) {
      const auto places = static_cast<std::int64_t>(cycle.size());
      const std::int64_t deficit = cycle_deficit(tokens, places, theta);
      if (deficit > 0) {
        RawCycle rc;
        rc.deficit = deficit;
        for (const graph::EdgeId p : cycle) {
          if (expansion.is_queue_place(p)) {
            rc.queue_channels.push_back(expansion.place_channel[static_cast<std::size_t>(p)]);
          }
        }
        LID_ASSERT(!rc.queue_channels.empty(),
                   "degrading cycle without a sizable queue backedge");
        raw.push_back(std::move(rc));
      }
    }
    return options.max_cycles == 0 || problem.cycles_enumerated < options.max_cycles;
  };
  const bool complete = graph::for_each_cycle(dg.structure(), on_cycle, nullptr, options.cancel);
  if (!complete) {
    problem.truncated = true;
    // The only other way enumeration stops early is on_cycle declining at
    // the cycle cap; anything else was the cancel token.
    const bool cap_hit =
        options.max_cycles != 0 && problem.cycles_enumerated >= options.max_cycles;
    problem.cancelled = !cap_hit;
  }
  problem.problem_cycles = raw.size();

  // Build the TD instance: one set per candidate channel, one element per
  // problematic cycle.
  for (const RawCycle& rc : raw) {
    for (const ChannelId ch : rc.queue_channels) {
      if (set_of_channel.emplace(ch, static_cast<int>(target_channels.size())).second) {
        target_channels.push_back(ch);
      }
    }
  }
  problem.td.set_members.resize(target_channels.size());
  for (int c = 0; c < static_cast<int>(raw.size()); ++c) {
    problem.td.deficits.push_back(raw[static_cast<std::size_t>(c)].deficit);
    for (const ChannelId ch : raw[static_cast<std::size_t>(c)].queue_channels) {
      problem.td.set_members[static_cast<std::size_t>(set_of_channel.at(ch))].push_back(c);
    }
  }
  for (auto& members : problem.td.set_members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }

  // Map candidate channels back to the original netlist numbering.
  problem.channels.reserve(target_channels.size());
  for (const ChannelId ch : target_channels) {
    problem.channels.push_back(build_target.origin(ch));
  }
  return problem;
}

LisGraph apply_solution(const LisGraph& lis, const QsProblem& problem,
                        const std::vector<std::int64_t>& weights) {
  LID_ENSURE(weights.size() == problem.channels.size(),
             "apply_solution: one weight per candidate channel required");
  LisGraph sized = lis;
  for (std::size_t s = 0; s < weights.size(); ++s) {
    LID_ENSURE(weights[s] >= 0, "apply_solution: negative weight");
    const ChannelId ch = problem.channels[s];
    sized.set_queue_capacity(ch, lis.channel(ch).queue_capacity + static_cast<int>(weights[s]));
  }
  return sized;
}

}  // namespace lid::core
