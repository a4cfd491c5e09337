// Rate-safety analysis of a LIS as a network of SCCs (Sec. III-C).
//
// When a LIS has several strongly connected components, each has its own
// maximal sustainable throughput. If a faster SCC feeds a slower one, the
// *ideal* (backpressure-free) system is unsafe: valid data accumulates
// without bound on the connecting channel, so infinite queues would be
// needed. The paper's Sec. III-C discussion: designers must slow the faster
// component, speed the slower one, or rely on backpressure (which is always
// safe but drags the whole system to the slowest rate). This module computes
// the per-SCC rates and flags every unsafe inter-SCC channel.
#pragma once

#include <string>
#include <vector>

#include "lis/lis_graph.hpp"
#include "mg/mcm.hpp"
#include "util/rational.hpp"

namespace lid::core {

/// Throughput of one SCC of the netlist.
struct SccRate {
  /// Member cores.
  std::vector<lis::CoreId> cores;
  /// θ of the SCC's own subgraph (1 for acyclic components).
  util::Rational rate;
  /// The effective rate after upstream components throttle it: the minimum
  /// of `rate` over this SCC and all its ancestors in the condensation.
  util::Rational effective_rate;
};

/// One channel where the ideal system would accumulate tokens unboundedly.
struct RateHazard {
  lis::ChannelId channel = graph::kInvalidEdge;
  /// Effective production rate of the upstream component.
  util::Rational producer_rate;
  /// Own rate of the downstream component.
  util::Rational consumer_rate;
};

/// The full report.
struct RateSafetyReport {
  /// One entry per SCC, indexed consistently with `scc_of`.
  std::vector<SccRate> sccs;
  /// scc_of[core] = index into `sccs`.
  std::vector<int> scc_of;
  /// Channels where a faster producer feeds a slower consumer.
  std::vector<RateHazard> hazards;
  /// True when the ideal (infinite-queue) system is safe as-is.
  [[nodiscard]] bool safe() const { return hazards.empty(); }

  [[nodiscard]] std::string to_string(const lis::LisGraph& lis) const;
};

/// Analyzes `lis` per Sec. III-C.
RateSafetyReport analyze_rate_safety(const lis::LisGraph& lis);

/// The same report from `ideal` = lis::expand_ideal(lis) and its
/// mg::mcm_evidence: a netlist SCC's cores and internal channels form one
/// component of G, so its rate is min(1, lambda) of that component.
RateSafetyReport analyze_rate_safety(const lis::LisGraph& lis, const lis::Expansion& ideal,
                                     const mg::McmEvidence& evidence);

}  // namespace lid::core
