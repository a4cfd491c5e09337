#include "core/rate_safety.hpp"

#include <algorithm>
#include <sstream>

#include "graph/scc.hpp"
#include "util/check.hpp"

namespace lid::core {

std::string RateSafetyReport::to_string(const lis::LisGraph& lis) const {
  std::ostringstream os;
  os << sccs.size() << " strongly connected component(s):\n";
  for (std::size_t c = 0; c < sccs.size(); ++c) {
    os << "  SCC " << c << " (";
    for (std::size_t i = 0; i < sccs[c].cores.size(); ++i) {
      if (i > 0) os << ", ";
      if (i == 4 && sccs[c].cores.size() > 5) {
        os << "... " << sccs[c].cores.size() << " cores";
        break;
      }
      os << lis.core_name(sccs[c].cores[i]);
    }
    os << "): rate " << sccs[c].rate << ", effective " << sccs[c].effective_rate << "\n";
  }
  if (hazards.empty()) {
    os << "rate-safe: no faster component feeds a slower one\n";
  } else {
    os << hazards.size() << " rate hazard(s) — the ideal system would accumulate "
       << "tokens unboundedly (Sec. III-C):\n";
    for (const RateHazard& h : hazards) {
      const lis::Channel& ch = lis.channel(h.channel);
      os << "  " << lis.core_name(ch.src) << " -> " << lis.core_name(ch.dst) << ": producer "
         << h.producer_rate << " > consumer " << h.consumer_rate << "\n";
    }
  }
  return os.str();
}

RateSafetyReport analyze_rate_safety(const lis::LisGraph& lis) {
  const lis::Expansion ideal = lis::expand_ideal(lis);
  return analyze_rate_safety(lis, ideal, mg::mcm_evidence(ideal.graph));
}

RateSafetyReport analyze_rate_safety(const lis::LisGraph& lis, const lis::Expansion& ideal,
                                     const mg::McmEvidence& evidence) {
  RateSafetyReport report;
  const graph::SccPartition part = graph::scc(lis.structure());
  report.scc_of = part.comp_of;
  report.sccs.resize(static_cast<std::size_t>(part.count));
  const auto scc_of = [&](lis::CoreId v) { return part.comp_of[static_cast<std::size_t>(v)]; };
  const auto scc = [&](int c) -> SccRate& { return report.sccs[static_cast<std::size_t>(c)]; };

  // Per-SCC rate: the ideal MST of the member-induced sub-netlist, i.e. of
  // the component of G holding any member core's input transition.
  for (int c = 0; c < part.count; ++c) {
    scc(c).cores = part.members[static_cast<std::size_t>(c)];
    const mg::TransitionId t =
        ideal.core_transition[static_cast<std::size_t>(scc(c).cores.front())];
    const int component = evidence.component[static_cast<std::size_t>(t)];
    scc(c).rate = util::Rational::min(util::Rational(1),
                                      evidence.lambda[static_cast<std::size_t>(component)]);
    LID_ENSURE(scc(c).rate.num() != 0, "analyze_rate_safety: token-free cycle in G");
    scc(c).effective_rate = scc(c).rate;
  }

  // Effective rates: propagate upstream throttling in topological order.
  // Tarjan indices are reverse-topological (edge (u, v) inter-SCC implies
  // comp_of[u] > comp_of[v]), so folding the inter-SCC channels in
  // descending order of their source SCC settles every producer's effective
  // rate before it is passed downstream.
  std::vector<lis::ChannelId> crossing;  // inter-SCC channels, by id
  for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(lis.num_channels()); ++ch) {
    if (scc_of(lis.channel(ch).src) != scc_of(lis.channel(ch).dst)) crossing.push_back(ch);
  }
  std::vector<lis::ChannelId> by_source = crossing;
  std::sort(by_source.begin(), by_source.end(), [&](lis::ChannelId a, lis::ChannelId b) {
    return scc_of(lis.channel(a).src) > scc_of(lis.channel(b).src);
  });
  for (const lis::ChannelId ch : by_source) {
    util::Rational& downstream = scc(scc_of(lis.channel(ch).dst)).effective_rate;
    downstream = util::Rational::min(downstream, scc(scc_of(lis.channel(ch).src)).effective_rate);
  }

  // Hazards: a producer whose effective rate exceeds what the consumer can
  // absorb (its effective rate already folds every upstream throttle in).
  for (const lis::ChannelId ch : crossing) {
    const util::Rational& producer = scc(scc_of(lis.channel(ch).src)).effective_rate;
    const util::Rational& consumer = scc(scc_of(lis.channel(ch).dst)).effective_rate;
    if (producer > consumer) report.hazards.push_back({ch, producer, consumer});
  }
  return report;
}

}  // namespace lid::core
