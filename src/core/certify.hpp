// Certificate emission: build verify::Certificate witnesses out of the
// solver state this module already computes. The *checker* lives in
// src/verify and shares no code with this side — emission may lean on
// mg::mcm_evidence (Howard potentials) and the lazy solver's recorded
// constraint cycles, because a wrong emission can only ever produce a
// certificate the independent checker rejects.
#pragma once

#include "core/queue_sizing.hpp"
#include "lis/lis_graph.hpp"
#include "mg/mcm.hpp"
#include "verify/certificate.hpp"

namespace lid::core {

/// Certificate for an analyze verdict: optimality witnesses for theta(G) on
/// expand_ideal and theta(d[G]) on expand_doubled. Always succeeds (the
/// witnesses are recomputed from the netlist, not taken on faith from a
/// previous analysis), and verify::check accepts the result by construction.
verify::Certificate certify_analysis(const lis::LisGraph& lis);

/// The same certificate from the evidence of expand_ideal(lis) and expand_doubled(lis).
verify::Certificate certify_analysis(const lis::LisGraph& lis, mg::McmEvidence ideal,
                                     mg::McmEvidence doubled);

/// Certificate for a finished queue-sizing run: the ideal ceiling, the
/// applied per-channel weights (diffed sized-vs-original, so they hold for
/// whichever solver produced `report.sized`), and a post-sizing optimality
/// witness proving the achieved MST. When the lazy solver converged without
/// the SCC collapse, its generating token-deficit constraint set rides along
/// as the lower-bound witness (see docs/certificates.md for what that does
/// and does not prove). `report` must be the result of sizing `original`.
verify::Certificate certify_sizing(const lis::LisGraph& original, const QsReport& report);

}  // namespace lid::core
