#include "core/certify.hpp"

#include <utility>
#include <vector>

#include "mg/mcm.hpp"
#include "util/check.hpp"

namespace lid::core {
namespace {

using util::Rational;

/// Optimality witness for one expansion, from its Howard evidence pass.
/// By convention an acyclic expansion carries theta = 1 (the MST cap); the
/// checker ignores the value and instead demands that every place crosses
/// label classes.
verify::McmWitness witness_for(mg::McmEvidence ev) {
  verify::McmWitness w;
  if (ev.critical) {
    w.acyclic = false;
    w.theta = ev.critical->mean;
    w.critical.mean = ev.critical->mean;
    w.critical.places.reserve(ev.critical->cycle.size());
    for (const mg::PlaceId p : ev.critical->cycle) {
      w.critical.places.push_back(static_cast<std::int64_t>(p));
    }
  } else {
    w.acyclic = true;
    w.theta = Rational(1);
  }
  w.component = std::move(ev.component);
  w.component_cyclic = std::move(ev.component_cyclic);
  w.lambda = std::move(ev.lambda);
  w.potential = std::move(ev.potential);
  return w;
}

}  // namespace

verify::Certificate certify_analysis(const lis::LisGraph& lis) {
  mg::McmEvidence ideal = mg::mcm_evidence(lis::expand_ideal(lis).graph);
  return certify_analysis(lis, std::move(ideal), mg::mcm_evidence(lis::expand_doubled(lis).graph));
}

verify::Certificate certify_analysis(const lis::LisGraph& lis, mg::McmEvidence ideal,
                                     mg::McmEvidence doubled) {
  verify::Certificate cert;
  cert.kind = verify::Kind::kAnalyze;
  cert.fingerprint = verify::fingerprint(lis);
  cert.ideal = witness_for(std::move(ideal));
  cert.practical = witness_for(std::move(doubled));
  return cert;
}

verify::Certificate certify_sizing(const lis::LisGraph& original, const QsReport& report) {
  verify::Certificate cert;
  cert.kind = verify::Kind::kSizing;
  cert.fingerprint = verify::fingerprint(original);
  cert.ideal = witness_for(report.ideal_evidence
                               ? *report.ideal_evidence
                               : mg::mcm_evidence(lis::expand_ideal(original).graph));
  cert.target = report.problem.theta_target;

  // The applied sizing, diffed channel by channel: valid for whichever
  // solver produced report.sized (exact, heuristic, or none needed).
  LID_ASSERT(report.sized.num_channels() == original.num_channels(),
             "certify_sizing: report does not belong to this netlist");
  for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(original.num_channels()); ++ch) {
    const std::int64_t extra = static_cast<std::int64_t>(report.sized.channel(ch).queue_capacity) -
                               original.channel(ch).queue_capacity;
    LID_ASSERT(extra >= 0, "certify_sizing: sized netlist shrank a queue");
    if (extra > 0) {
      cert.weights.push_back({static_cast<std::int64_t>(ch), extra});
      cert.total += extra;
    }
  }

  // Lower-bound section: only when the lazy solve ran on the pristine
  // (uncollapsed) graph, so the recorded cycles' place ids are valid in the
  // d[G] the checker re-expands. A collapse leaves the section out
  // (constraint_count stays -1).
  if (report.lazy.has_value() && !report.problem.scc_collapsed) {
    cert.constraint_count = static_cast<std::int64_t>(report.lazy_constraints.size());
    cert.constraints = report.lazy_constraints;
  }

  cert.achieved = witness_for(mg::mcm_evidence(lis::expand_doubled(report.sized).graph));
  return cert;
}

}  // namespace lid::core
