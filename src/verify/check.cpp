// The standalone certificate checker.
//
// Trust model (docs/certificates.md): this file re-expands the instance with
// lis::expand_ideal / lis::expand_doubled — definitional data-structure code
// — and re-walks its places. It includes no solver header (mg/mcm.hpp,
// mg/analysis.hpp, core/*) and computes no SCC, no cycle-mean minimum, and no
// sizing: every judgement below is a single pass over the certificate's own
// data against the expansion's edges, O(E) per witness, with 128-bit integer
// arithmetic so adversarial certificates cannot overflow it.
#include <algorithm>
#include <string>
#include <vector>

#include "verify/certificate.hpp"

namespace lid::verify {
namespace {

using util::Rational;

std::string place_str(std::int64_t p) { return "place " + std::to_string(p); }

/// Validates one McmWitness against an expansion in one pass over its places.
CheckResult check_witness(const mg::MarkedGraph& g, const McmWitness& m, const char* what) {
  const std::size_t transitions = g.num_transitions();
  const std::size_t classes = m.lambda.size();
  if (m.component.size() != transitions || m.potential.size() != transitions ||
      m.component_cyclic.size() != classes) {
    return CheckResult::fail(Reject::kMalformed,
                             std::string(what) + ": witness dimensions do not match the expansion");
  }
  for (const int c : m.component) {
    if (c < 0 || static_cast<std::size_t>(c) >= classes) {
      return CheckResult::fail(Reject::kMalformed,
                               std::string(what) + ": component label out of range");
    }
  }

  // Every cyclic class bound must sit at or above the claimed theta — then
  // the per-place inequalities prove every cycle has mean >= theta.
  for (std::size_t c = 0; c < classes; ++c) {
    if (m.component_cyclic[c] != 0 && m.lambda[c] < m.theta) {
      return CheckResult::fail(Reject::kLambdaBelowTheta,
                               std::string(what) + ": class " + std::to_string(c) +
                                   " bound " + m.lambda[c].to_string() + " undercuts theta " +
                                   m.theta.to_string());
    }
  }

  const graph::Digraph& s = g.structure();
  for (std::size_t p = 0; p < g.num_places(); ++p) {
    const auto pid = static_cast<mg::PlaceId>(p);
    const graph::Edge& e = s.edge(pid);
    const int cu = m.component[static_cast<std::size_t>(e.src)];
    const int cv = m.component[static_cast<std::size_t>(e.dst)];
    if (cu != cv) {
      // Cross-class places must descend: then any cycle stays in one class.
      if (cu < cv) {
        return CheckResult::fail(Reject::kComponentOrderViolation,
                                 std::string(what) + ": " + place_str(pid) +
                                     " ascends the component order");
      }
      continue;
    }
    if (m.acyclic) {
      return CheckResult::fail(Reject::kComponentOrderViolation,
                               std::string(what) + ": " + place_str(pid) +
                                   " stays inside a class of an allegedly acyclic expansion");
    }
    if (m.component_cyclic[static_cast<std::size_t>(cu)] == 0) {
      return CheckResult::fail(Reject::kComponentOrderViolation,
                               std::string(what) + ": " + place_str(pid) +
                                   " stays inside a class not marked cyclic");
    }
    // q*w - p + s[dst] - s[src] >= 0, with lambda[class] = p/q.
    const Rational& lam = m.lambda[static_cast<std::size_t>(cu)];
    const __int128 slack = static_cast<__int128>(lam.den()) * g.tokens(pid) - lam.num() +
                           m.potential[static_cast<std::size_t>(e.dst)] -
                           m.potential[static_cast<std::size_t>(e.src)];
    if (slack < 0) {
      return CheckResult::fail(Reject::kPotentialViolation,
                               std::string(what) + ": potential inequality fails on " +
                                   place_str(pid));
    }
  }

  if (m.acyclic) return CheckResult::pass();

  // The witness cycle: a genuine closed walk whose mean equals theta.
  const std::vector<std::int64_t>& walk = m.critical.places;
  if (walk.empty()) {
    return CheckResult::fail(Reject::kBadCycle, std::string(what) + ": empty witness cycle");
  }
  __int128 tokens = 0;
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const std::int64_t p = walk[i];
    if (p < 0 || static_cast<std::size_t>(p) >= g.num_places()) {
      return CheckResult::fail(Reject::kBadCycle,
                               std::string(what) + ": witness " + place_str(p) + " out of range");
    }
    const std::int64_t next = walk[(i + 1) % walk.size()];
    if (next < 0 || static_cast<std::size_t>(next) >= g.num_places()) {
      return CheckResult::fail(Reject::kBadCycle,
                               std::string(what) + ": witness " + place_str(next) + " out of range");
    }
    if (s.edge(static_cast<graph::EdgeId>(p)).dst !=
        s.edge(static_cast<graph::EdgeId>(next)).src) {
      return CheckResult::fail(Reject::kBadCycle,
                               std::string(what) + ": witness walk breaks after " + place_str(p));
    }
    tokens += g.tokens(static_cast<mg::PlaceId>(p));
  }
  // mean == theta, cross-multiplied in 128 bits: tokens/len == num/den.
  const __int128 len = static_cast<__int128>(walk.size());
  if (tokens * m.theta.den() != static_cast<__int128>(m.theta.num()) * len) {
    return CheckResult::fail(Reject::kCycleMeanMismatch,
                             std::string(what) + ": witness cycle mean differs from theta " +
                                 m.theta.to_string());
  }
  if (m.critical.mean != m.theta) {
    return CheckResult::fail(Reject::kCycleMeanMismatch,
                             std::string(what) + ": witness mean field differs from theta");
  }
  return CheckResult::pass();
}

/// Validates one lower-bound constraint against the pristine doubled
/// expansion: the cycle must be a genuine closed walk, its sizable places
/// must be exactly the queue backedges of the listed channels (each at most
/// once), and the deficit must be the exact token shortfall against target.
CheckResult check_constraint(const lis::Expansion& doubled, const Rational& target,
                             const DeficitConstraint& dc, std::size_t index) {
  const std::string what = "constraint " + std::to_string(index);
  const mg::MarkedGraph& g = doubled.graph;
  const graph::Digraph& s = g.structure();
  if (dc.cycle.empty()) {
    return CheckResult::fail(Reject::kConstraintUnsound, what + ": empty cycle");
  }
  __int128 tokens = 0;
  std::vector<std::int64_t> queue_channels;
  for (std::size_t i = 0; i < dc.cycle.size(); ++i) {
    const std::int64_t p = dc.cycle[i];
    if (p < 0 || static_cast<std::size_t>(p) >= g.num_places()) {
      return CheckResult::fail(Reject::kConstraintUnsound,
                               what + ": " + place_str(p) + " out of range");
    }
    const std::int64_t next = dc.cycle[(i + 1) % dc.cycle.size()];
    if (next < 0 || static_cast<std::size_t>(next) >= g.num_places()) {
      return CheckResult::fail(Reject::kConstraintUnsound,
                               what + ": " + place_str(next) + " out of range");
    }
    if (s.edge(static_cast<graph::EdgeId>(p)).dst !=
        s.edge(static_cast<graph::EdgeId>(next)).src) {
      return CheckResult::fail(Reject::kConstraintUnsound,
                               what + ": cycle walk breaks after " + place_str(p));
    }
    tokens += g.tokens(static_cast<mg::PlaceId>(p));
    if (doubled.is_queue_place(static_cast<mg::PlaceId>(p))) {
      queue_channels.push_back(
          static_cast<std::int64_t>(doubled.place_channel[static_cast<std::size_t>(p)]));
    }
  }
  // The sizable places on the cycle must be exactly the listed channels,
  // each once — otherwise "sum of extras over channels >= deficit" is not
  // what the cycle implies.
  std::vector<std::int64_t> listed = dc.channels;
  std::sort(listed.begin(), listed.end());
  std::sort(queue_channels.begin(), queue_channels.end());
  if (std::adjacent_find(queue_channels.begin(), queue_channels.end()) != queue_channels.end()) {
    return CheckResult::fail(Reject::kConstraintUnsound,
                             what + ": cycle traverses a queue backedge twice");
  }
  if (listed != queue_channels) {
    return CheckResult::fail(Reject::kConstraintUnsound,
                             what + ": channel set does not match the cycle's queue backedges");
  }
  // deficit == max(0, ceil(target * len) - tokens).
  const __int128 len = static_cast<__int128>(dc.cycle.size());
  const __int128 num = static_cast<__int128>(target.num()) * len;
  const __int128 den = target.den();
  __int128 need = num / den + (num % den != 0 ? 1 : 0);  // target >= 0
  need -= tokens;
  if (need < 0) need = 0;
  if (need != dc.deficit) {
    return CheckResult::fail(Reject::kConstraintUnsound,
                             what + ": deficit differs from the cycle's token shortfall");
  }
  return CheckResult::pass();
}

}  // namespace

const char* to_string(Reject reason) {
  switch (reason) {
    case Reject::kNone: return "ok";
    case Reject::kMalformed: return "malformed";
    case Reject::kFingerprintMismatch: return "fingerprint-mismatch";
    case Reject::kComponentOrderViolation: return "component-order-violation";
    case Reject::kPotentialViolation: return "potential-violation";
    case Reject::kLambdaBelowTheta: return "lambda-below-theta";
    case Reject::kBadCycle: return "bad-cycle";
    case Reject::kCycleMeanMismatch: return "cycle-mean-mismatch";
    case Reject::kWeightsInvalid: return "weights-invalid";
    case Reject::kTotalMismatch: return "total-mismatch";
    case Reject::kTargetMissed: return "target-missed";
    case Reject::kTruncatedConstraints: return "truncated-constraints";
    case Reject::kConstraintUnsound: return "constraint-unsound";
  }
  return "unknown";
}

CheckResult check(const lis::LisGraph& instance, const Certificate& cert) {
  if (cert.fingerprint != fingerprint(instance)) {
    return CheckResult::fail(Reject::kFingerprintMismatch,
                             "certificate addresses " + cert.fingerprint +
                                 ", instance is " + fingerprint(instance));
  }

  // Each expansion lives only as long as its pass: at 10^5 cores one holds
  // tens of MB, and the checker's peak is the largest single pass.
  {
    const lis::Expansion ideal = lis::expand_ideal(instance);
    if (CheckResult r = check_witness(ideal.graph, cert.ideal, "ideal"); !r.ok) return r;
  }

  if (cert.kind == Kind::kAnalyze) {
    const lis::Expansion doubled = lis::expand_doubled(instance);
    return check_witness(doubled.graph, cert.practical, "practical");
  }

  // Sizing: weights are well-formed and total what the certificate claims.
  std::vector<char> seen(instance.num_channels(), 0);
  __int128 total = 0;
  for (const QueueAssignment& qa : cert.weights) {
    if (qa.channel < 0 || static_cast<std::size_t>(qa.channel) >= instance.num_channels() ||
        qa.extra < 0 || qa.extra > 1'000'000'000 ||
        seen[static_cast<std::size_t>(qa.channel)] != 0) {
      return CheckResult::fail(Reject::kWeightsInvalid,
                               "weight entry for channel " + std::to_string(qa.channel) +
                                   " is out of range, negative, or duplicated");
    }
    seen[static_cast<std::size_t>(qa.channel)] = 1;
    total += qa.extra;
  }
  if (total != cert.total) {
    return CheckResult::fail(Reject::kTotalMismatch, "total differs from the sum of weights");
  }

  // The lower-bound section, against the pristine doubled expansion.
  if (cert.constraint_count >= 0) {
    if (cert.constraint_count != static_cast<std::int64_t>(cert.constraints.size())) {
      return CheckResult::fail(Reject::kTruncatedConstraints,
                               "constraint_count " + std::to_string(cert.constraint_count) +
                                   " != " + std::to_string(cert.constraints.size()) +
                                   " constraints present");
    }
    const lis::Expansion pristine = lis::expand_doubled(instance);
    for (std::size_t i = 0; i < cert.constraints.size(); ++i) {
      if (CheckResult r = check_constraint(pristine, cert.target, cert.constraints[i], i); !r.ok) {
        return r;
      }
    }
  }

  // Feasibility: apply the weights and validate the post-sizing witness. The
  // sized copy is dropped once expanded.
  const lis::Expansion after = [&] {
    lis::LisGraph sized = instance;
    for (const QueueAssignment& qa : cert.weights) {
      const auto ch = static_cast<lis::ChannelId>(qa.channel);
      sized.set_queue_capacity(ch, sized.channel(ch).queue_capacity +
                                       static_cast<int>(qa.extra));
    }
    return lis::expand_doubled(sized);
  }();
  if (CheckResult r = check_witness(after.graph, cert.achieved, "achieved"); !r.ok) return r;
  if (!cert.achieved.acyclic &&
      Rational::min(Rational(1), cert.achieved.theta) < Rational::min(Rational(1), cert.target)) {
    return CheckResult::fail(Reject::kTargetMissed,
                             "achieved theta " + cert.achieved.theta.to_string() +
                                 " misses the target " + cert.target.to_string());
  }
  return CheckResult::pass();
}

}  // namespace lid::verify
