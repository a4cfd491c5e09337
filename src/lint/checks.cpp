#include "lint/checks.hpp"

#include <algorithm>
#include <compare>
#include <map>
#include <utility>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/queue_sizing.hpp"
#include "core/storage.hpp"
#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "lis/lis_graph.hpp"

namespace lid::linter {
namespace {

std::string channel_desc(const lis::LisGraph& lis, lis::ChannelId c) {
  const lis::Channel& ch = lis.channel(c);
  return lis.core_name(ch.src) + " -> " + lis.core_name(ch.dst);
}

Diagnostic make(const char* code, std::string message) {
  const CheckInfo* info = find_check(code);
  Diagnostic d;
  d.code = code;
  d.severity = info != nullptr ? info->severity : Severity::kWarning;
  d.message = std::move(message);
  return d;
}

// --- L003: empty netlist ---------------------------------------------------

void check_empty(const lis::LisGraph& lis, Report& report) {
  if (lis.num_cores() != 0) return;
  report.diagnostics.push_back(
      make("L003", "the netlist declares no cores; every analysis is undefined on it"));
}

// --- L002: zero-capacity queues --------------------------------------------

void check_zero_queues(const lis::LisGraph& lis, Report& report) {
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    if (lis.channel(c).queue_capacity != 0) continue;
    Diagnostic d = make("L002", "channel " + channel_desc(lis, c) +
                                    " has queue capacity 0; its producer can never be "
                                    "granted space (every correct LIS has q >= 1)");
    d.location.channel = c;
    FixIt fix;
    fix.description = "raise the queue on channel " + channel_desc(lis, c) + " to 1";
    fix.channel = c;
    fix.set_queue_capacity = 1;
    d.fixits.push_back(std::move(fix));
    report.diagnostics.push_back(std::move(d));
  }
}

// --- L001: zero-token cycle (deadlock) -------------------------------------

void check_deadlock(const lis::LisGraph& lis, const lis::Expansion& doubled, Report& report) {
  const mg::MarkedGraph& g = doubled.graph;

  // A cycle whose places all carry zero tokens can never fire any of its
  // transitions (Commoner's liveness condition). In a LIS expansion such a
  // cycle must run through backpressure places of channels with q = 0 and
  // rs = 0, so it maps cleanly back to netlist channels. One DFS witness on
  // the zero-token subgraph suffices — O(E) regardless of how many
  // elementary cycles d[G] has.
  const graph::Cycle witness = graph::find_cycle(
      g.structure(), [&g](graph::EdgeId place) { return g.tokens(place) == 0; });
  if (witness.empty()) return;

  // Name the channels on the cycle, in traversal order, deduplicated.
  std::vector<lis::ChannelId> channels;
  for (const graph::EdgeId place : witness) {
    const lis::ChannelId c = doubled.place_channel[static_cast<std::size_t>(place)];
    if (c == graph::kInvalidEdge) continue;
    if (std::find(channels.begin(), channels.end(), c) == channels.end()) channels.push_back(c);
  }

  std::string via;
  for (const lis::ChannelId c : channels) {
    if (!via.empty()) via += ", ";
    via += channel_desc(lis, c);
  }
  Diagnostic d = make("L001", "zero-token cycle in d[G]" +
                                  (via.empty() ? std::string() : " through channel(s) " + via) +
                                  ": the marked graph deadlocks, no sustainable "
                                  "throughput exists");
  CycleEvidence evidence;
  evidence.places.reserve(witness.size());
  for (const graph::EdgeId place : witness) evidence.places.push_back(place);
  evidence.tokens = 0;  // zero by construction — that is the finding
  evidence.channels = channels;
  d.witness = std::move(evidence);
  if (!channels.empty()) d.location.channel = channels.front();
  for (const lis::ChannelId c : channels) {
    if (lis.channel(c).queue_capacity != 0) continue;
    FixIt fix;
    fix.description = "raise the queue on channel " + channel_desc(lis, c) +
                      " to 1 to put a token on the cycle";
    fix.channel = c;
    fix.set_queue_capacity = 1;
    d.fixits.push_back(std::move(fix));
  }
  report.diagnostics.push_back(std::move(d));
}

// --- L101: isolated cores --------------------------------------------------

void check_isolated_cores(const lis::LisGraph& lis, Report& report) {
  const graph::Digraph& g = lis.structure();
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
    if (g.out_degree(v) != 0 || g.in_degree(v) != 0) continue;
    Diagnostic d = make("L101", "core " + lis.core_name(v) +
                                    " has no channels; it cannot exchange data with "
                                    "the rest of the system");
    d.location.core = v;
    report.diagnostics.push_back(std::move(d));
  }
}

// --- L102: duplicate channels ----------------------------------------------

void check_duplicate_channels(const lis::LisGraph& lis, Report& report) {
  // Sorted by (src, dst, rs, q, id), every channel after the first of its
  // (src, dst, rs, q) group duplicates an earlier one.
  struct Key {
    lis::CoreId src;
    lis::CoreId dst;
    int rs;
    int q;
    lis::ChannelId id;
    auto operator<=>(const Key&) const = default;
  };
  std::vector<Key> keys;
  keys.reserve(lis.num_channels());
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    const lis::Channel& ch = lis.channel(c);
    keys.push_back({ch.src, ch.dst, ch.relay_stations, ch.queue_capacity, c});
  }
  std::sort(keys.begin(), keys.end());
  std::vector<char> duplicate(lis.num_channels(), 0);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const Key& a = keys[i - 1];
    const Key& b = keys[i];
    if (a.src == b.src && a.dst == b.dst && a.rs == b.rs && a.q == b.q) {
      duplicate[static_cast<std::size_t>(b.id)] = 1;
    }
  }
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    if (duplicate[static_cast<std::size_t>(c)] == 0) continue;
    Diagnostic d =
        make("L102", "channel " + channel_desc(lis, c) +
                         " duplicates an earlier channel with identical endpoints, rs and q; "
                         "replicated channels are legal but this may be a copy-paste error");
    d.location.channel = c;
    report.diagnostics.push_back(std::move(d));
  }
}

// --- L103: disconnected netlist --------------------------------------------

void check_disconnected(const lis::LisGraph& lis, Report& report) {
  const std::size_t n = lis.num_cores();
  if (n < 2) return;
  // Weak components by union over channel endpoints.
  std::vector<lis::CoreId> parent(n);
  for (std::size_t v = 0; v < n; ++v) parent[v] = static_cast<lis::CoreId>(v);
  const auto find = [&parent](lis::CoreId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    const lis::Channel& ch = lis.channel(c);
    parent[static_cast<std::size_t>(find(ch.src))] = find(ch.dst);
  }
  std::size_t components = 0;
  lis::CoreId second_root = graph::kInvalidNode;
  for (std::size_t v = 0; v < n; ++v) {
    if (find(static_cast<lis::CoreId>(v)) != static_cast<lis::CoreId>(v)) continue;
    ++components;
    if (components == 2) second_root = static_cast<lis::CoreId>(v);
  }
  if (components < 2) return;
  Diagnostic d = make("L103", "the netlist splits into " + std::to_string(components) +
                                  " disconnected components; the MST analysis reports "
                                  "only the slowest one and the others are dead weight");
  d.location.core = second_root;
  report.diagnostics.push_back(std::move(d));
}

// --- L201/L202/L203/L204: throughput antipatterns (target-gated) -----------

void check_throughput(const lis::LisGraph& lis, const LintOptions& options, Report& report) {
  const util::Rational target = options.target;
  const core::DegradationReport degradation = core::explain_degradation(lis);
  const util::Rational ideal = degradation.theta_ideal;
  const util::Rational practical = degradation.theta_practical;

  if (target > ideal) {
    Diagnostic d = make("L203", "target throughput " + target.to_string() +
                                    " exceeds the ideal MST theta(G) = " + ideal.to_string() +
                                    "; no queue sizing can reach it — the relay-station "
                                    "placement itself limits throughput (Sec. VI repair "
                                    "territory, not Sec. VII)");
    report.diagnostics.push_back(std::move(d));
  }

  if (practical >= target) return;  // target met; nothing below fires

  {
    std::string cycle;
    lis::ChannelId anchor = graph::kInvalidEdge;
    for (const core::CriticalHop& hop : degradation.critical_cycle) {
      if (!cycle.empty()) cycle += ", ";
      cycle += hop.description;
      if (anchor == graph::kInvalidEdge && hop.backward && hop.channel != graph::kInvalidEdge) {
        anchor = hop.channel;
      }
    }
    Diagnostic d = make("L201", "practical MST theta(d[G]) = " + practical.to_string() +
                                    " misses the target " + target.to_string() +
                                    (cycle.empty() ? std::string()
                                                   : "; critical cycle: " + cycle));
    d.location.channel = anchor;
    if (!degradation.cycle_place_ids.empty()) {
      CycleEvidence evidence;
      evidence.places = degradation.cycle_place_ids;
      evidence.tokens = degradation.cycle_tokens;
      for (const core::CriticalHop& hop : degradation.critical_cycle) {
        if (hop.channel == graph::kInvalidEdge) continue;
        if (std::find(evidence.channels.begin(), evidence.channels.end(), hop.channel) ==
            evidence.channels.end()) {
          evidence.channels.push_back(hop.channel);
        }
      }
      d.witness = std::move(evidence);
    }
    report.diagnostics.push_back(std::move(d));
  }

  // L202: if raising input queues alone reaches the (ideal-clamped) target,
  // the current capacities sit below their token-deficit lower bound. The
  // lazy solver's solution is a feasible witness and doubles as the fix-it
  // list — no up-front cycle enumeration on this (default) path.
  {
    core::QsOptions qs;
    qs.method = core::QsMethod::kLazy;
    qs.build.target_mst = target;
    qs.build.max_cycles = options.max_cycles;
    const core::QsReport sized = core::size_queues(lis, qs);
    const util::Rational clamped = std::min(target, ideal);
    const core::SolverOutcome* best =
        sized.exact ? &*sized.exact : sized.heuristic ? &*sized.heuristic : nullptr;
    if (sized.achieved_mst >= clamped && best != nullptr && best->total_extra_tokens > 0) {
      Diagnostic d =
          make("L202", "input queues are " + std::to_string(best->total_extra_tokens) +
                           " slot(s) below their token-deficit lower bound for target " +
                           clamped.to_string() + "; sizing them reaches " +
                           sized.achieved_mst.to_string() +
                           (sized.problem.truncated ? " (cycle enumeration truncated — the "
                                                      "bound may be incomplete)"
                                                    : ""));
      for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
        const int before = lis.channel(c).queue_capacity;
        const int after = sized.sized.channel(c).queue_capacity;
        if (after <= before) continue;
        if (d.location.channel == graph::kInvalidEdge) d.location.channel = c;
        FixIt fix;
        fix.description = "raise the queue on backedge of channel " + channel_desc(lis, c) +
                          " from " + std::to_string(before) + " to " + std::to_string(after);
        fix.channel = c;
        fix.set_queue_capacity = after;
        d.fixits.push_back(std::move(fix));
      }
      report.diagnostics.push_back(std::move(d));
    }
  }

  // L204: reconvergent parallel channels with unbalanced relay-station
  // counts. The lighter path delivers early, fills its queue, and stalls the
  // producer at the heavier path's rate — the Fig. 1 pattern of the paper.
  {
    std::map<std::pair<lis::CoreId, lis::CoreId>, std::vector<lis::ChannelId>> groups;
    for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
      const lis::Channel& ch = lis.channel(c);
      groups[{ch.src, ch.dst}].push_back(c);
    }
    for (const auto& [endpoints, members] : groups) {
      if (members.size() < 2) continue;
      int min_rs = lis.channel(members.front()).relay_stations;
      int max_rs = min_rs;
      for (const lis::ChannelId c : members) {
        min_rs = std::min(min_rs, lis.channel(c).relay_stations);
        max_rs = std::max(max_rs, lis.channel(c).relay_stations);
      }
      if (min_rs == max_rs) continue;
      Diagnostic d = make(
          "L204", "parallel channels " + channel_desc(lis, members.front()) + " carry between " +
                      std::to_string(min_rs) + " and " + std::to_string(max_rs) +
                      " relay stations; the shorter path stalls the longer one while the "
                      "target is missed — balance them or size the shorter path's queue");
      d.location.channel = members.front();
      for (const lis::ChannelId c : members) {
        const int rs = lis.channel(c).relay_stations;
        if (rs >= max_rs) continue;
        FixIt fix;
        fix.description = "insert " + std::to_string(max_rs - rs) +
                          " relay station(s) on channel " + channel_desc(lis, c) +
                          " to balance the reconvergent paths";
        fix.channel = c;
        fix.add_relay_stations = max_rs - rs;
        d.fixits.push_back(std::move(fix));
      }
      report.diagnostics.push_back(std::move(d));
    }
  }
}

// --- L301: cycle-enumeration blowup ----------------------------------------

void check_blowup(const lis::Expansion& doubled, const LintOptions& options, Report& report) {
  const graph::Digraph& g = doubled.graph.structure();
  const graph::SccPartition partition = graph::scc(g);

  // Count places inside each SCC; the cyclomatic number E - V + 1 of a
  // strongly connected graph lower-bounds its independent cycles, and
  // elementary-cycle counts grow exponentially in it for the dense SCCs the
  // generator produces — a cheap structural predictor of Johnson blowup.
  std::vector<std::int64_t> internal_edges(static_cast<std::size_t>(partition.count), 0);
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e) {
    const graph::Edge& edge = g.edge(e);
    const int cs = partition.comp_of[static_cast<std::size_t>(edge.src)];
    const int cd = partition.comp_of[static_cast<std::size_t>(edge.dst)];
    if (cs == cd) ++internal_edges[static_cast<std::size_t>(cs)];
  }
  for (int comp = 0; comp < partition.count; ++comp) {
    const auto nodes =
        static_cast<std::int64_t>(partition.members[static_cast<std::size_t>(comp)].size());
    if (nodes < 2) continue;
    const std::int64_t mu = internal_edges[static_cast<std::size_t>(comp)] - nodes + 1;
    if (mu < options.blowup_exponent) continue;
    Diagnostic d = make(
        "L301", "an SCC of d[G] with " + std::to_string(nodes) + " transitions and " +
                    std::to_string(internal_edges[static_cast<std::size_t>(comp)]) +
                    " places has cyclomatic number " + std::to_string(mu) +
                    "; elementary-cycle enumeration can reach ~2^" + std::to_string(mu) +
                    " cycles — informational: the default analyze/size-queues/lint paths "
                    "are enumeration-free, only the opt-in eager solvers are affected");
    report.diagnostics.push_back(std::move(d));
  }
}

// --- L302: oversized queues ------------------------------------------------

void check_oversized_queues(const lis::LisGraph& lis, const lis::Expansion& doubled,
                            Report& report) {
  // q = 1 can never be oversized: only channels with q > 1 pay a bound search.
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    if (lis.channel(c).queue_capacity <= 1) continue;
    const core::ChannelStorage s = core::channel_storage(lis, doubled, c);
    if (s.occupancy_bound >= s.configured_capacity) continue;
    Diagnostic d = make(
        "L302", "channel " + channel_desc(lis, s.channel) + " configures q = " +
                    std::to_string(s.configured_capacity) +
                    " but its structural occupancy bound is " + std::to_string(s.occupancy_bound) +
                    "; the extra slots can never fill");
    d.location.channel = s.channel;
    FixIt fix;
    fix.description = "lower the queue on channel " + channel_desc(lis, s.channel) +
                      " toward its occupancy bound " + std::to_string(s.occupancy_bound);
    fix.channel = s.channel;
    fix.set_queue_capacity = static_cast<int>(std::max<std::int64_t>(1, s.occupancy_bound));
    d.fixits.push_back(std::move(fix));
    report.diagnostics.push_back(std::move(d));
  }
}

}  // namespace

Report run_checks(const lis::LisGraph& lis, const LintOptions& options,
                  const lis::Expansion& doubled) {
  Report report;
  // Error tier, catalog order (L001 before L002 in the output even though
  // L002's scan is cheaper — order is part of the rendering contract).
  check_deadlock(lis, doubled, report);
  check_zero_queues(lis, report);
  check_empty(lis, report);
  if (options.errors_only) return report;

  // Structural warnings are safe on any parseable netlist.
  check_isolated_cores(lis, report);
  check_duplicate_channels(lis, report);
  check_disconnected(lis, report);

  // The deeper tiers run marked-graph analyses that are only defined on
  // error-free models; skip them when the error tier fired.
  if (report.has_errors()) return report;
  if (options.target > util::Rational(0)) check_throughput(lis, options, report);
  check_blowup(doubled, options, report);
  check_oversized_queues(lis, doubled, report);
  return report;
}

Report run_checks(const lis::LisGraph& lis, const LintOptions& options) {
  return run_checks(lis, options, lis::expand_doubled(lis));
}

Report run_error_checks(const lis::LisGraph& lis) {
  LintOptions options;
  options.errors_only = true;
  return run_checks(lis, options);
}

}  // namespace lid::linter
