#include "core/diagnostics.hpp"

#include <sstream>

#include "util/check.hpp"

namespace lid::core {

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  os << "ideal MST θ(G) = " << theta_ideal << ", practical MST θ(d[G]) = " << theta_practical;
  if (!degraded) {
    os << " — no backpressure degradation\n";
    return os.str();
  }
  os << " — DEGRADED\n";
  os << "critical cycle (" << cycle_tokens << " tokens / " << cycle_places << " places):\n";
  for (const CriticalHop& hop : critical_cycle) {
    os << "  " << (hop.backward ? "[back] " : "[fwd]  ") << hop.description << "  (tokens "
       << hop.tokens << ")\n";
  }
  return os.str();
}

void DegradationReport::set_theta_ideal(const util::Rational& theta) {
  theta_ideal = theta;
  degraded = theta_practical < theta_ideal;
}

DegradationReport explain_degradation(const lis::LisGraph& lis) {
  // One Howard solve yields both the practical MST and its critical cycle —
  // a separate mg::mst() pass would redo the same minimum-cycle-mean work.
  const lis::Expansion doubled = lis::expand_doubled(lis);
  DegradationReport report =
      explain_practical(lis, doubled, mg::min_cycle_mean_howard(doubled.graph));
  report.set_theta_ideal(lis::ideal_mst(lis));
  return report;
}

DegradationReport explain_practical(const lis::LisGraph& lis, const lis::Expansion& doubled,
                                    const std::optional<mg::MeanCycle>& critical) {
  DegradationReport report;
  if (!critical) {
    // Acyclic doubled graph: single channel-free core; MST stays at 1.
    report.theta_practical = util::Rational(1);
    return report;
  }
  LID_ENSURE(critical->mean.num() != 0,
             "explain_degradation: token-free cycle (deadlocked doubled graph)");
  report.theta_practical = util::Rational::min(util::Rational(1), critical->mean);

  const mg::MarkedGraph& g = doubled.graph;
  report.cycle_places = static_cast<std::int64_t>(critical->cycle.size());
  report.cycle_tokens = g.cycle_tokens(critical->cycle);
  report.cycle_place_ids.assign(critical->cycle.begin(), critical->cycle.end());
  for (const mg::PlaceId p : critical->cycle) {
    CriticalHop hop;
    hop.channel = doubled.place_channel[static_cast<std::size_t>(p)];
    hop.backward = g.place_kind(p) == mg::PlaceKind::kBackward;
    hop.tokens = g.tokens(p);
    std::ostringstream os;
    os << g.transition_name(g.producer(p)) << (hop.backward ? " ~> " : " -> ")
       << g.transition_name(g.consumer(p));
    if (doubled.is_queue_place(p)) {
      os << " (queue backedge, capacity " << lis.channel(hop.channel).queue_capacity << ")";
    }
    hop.description = os.str();
    report.critical_cycle.push_back(std::move(hop));
  }
  return report;
}

}  // namespace lid::core
