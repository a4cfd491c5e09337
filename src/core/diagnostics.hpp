// Human-readable throughput diagnostics: which cycle of the doubled graph
// limits a LIS's throughput, expressed in terms of the netlist's cores,
// relay stations and queue backedges. Used by the command-line tool and the
// examples; the underlying critical cycle comes from Howard's algorithm.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lis/lis_graph.hpp"
#include "mg/mcm.hpp"
#include "util/rational.hpp"

namespace lid::core {

/// One hop of the critical cycle.
struct CriticalHop {
  /// "A -> rs0" / "B ~> A (queue backedge)" style description.
  std::string description;
  /// Channel the hop belongs to.
  lis::ChannelId channel = graph::kInvalidEdge;
  /// True for backpressure hops.
  bool backward = false;
  /// Initial tokens on the hop.
  std::int64_t tokens = 0;
};

/// Why (and how much) a practical LIS underperforms its ideal MST.
struct DegradationReport {
  util::Rational theta_ideal;
  util::Rational theta_practical;
  bool degraded = false;
  /// The critical cycle of d[G] (empty when the doubled graph is acyclic).
  std::vector<CriticalHop> critical_cycle;
  /// The same cycle as raw place ids of lis::expand_doubled — the witness
  /// form consumers (lint, certificates) can re-check without re-solving.
  std::vector<std::int64_t> cycle_place_ids;
  std::int64_t cycle_tokens = 0;
  std::int64_t cycle_places = 0;

  /// Multi-line rendering for logs / CLI output.
  [[nodiscard]] std::string to_string() const;

  /// Records θ(G) and derives `degraded`.
  void set_theta_ideal(const util::Rational& theta);
};

/// Analyzes `lis` and reports its limiting cycle.
DegradationReport explain_degradation(const lis::LisGraph& lis);

/// The d[G] half of explain_degradation: theta_practical and the hops, from
/// `doubled` = lis::expand_doubled(lis) and its minimum-mean cycle (absent
/// when acyclic). theta_ideal and degraded wait for set_theta_ideal.
DegradationReport explain_practical(const lis::LisGraph& lis, const lis::Expansion& doubled,
                                    const std::optional<mg::MeanCycle>& critical);

}  // namespace lid::core
