// Independently checkable certificates for the paper's analysis verdicts.
//
// Every claim the analyses make reduces to properties of the marked-graph
// expansions of a netlist: "the practical MST is theta" is exactly "theta is
// the minimum cycle mean of d[G]", and "this queue sizing reaches the ideal
// MST" is "after adding these tokens to the queue backedges, no cycle of
// d[G] has mean below the ideal". Both are certifiable: a critical cycle
// plus node potentials prove a minimum cycle mean in one O(E) pass, and a
// token-deficit constraint set records why a sizing total cannot be beaten.
//
// This module owns the certificate *model*, its float-free JSON codec, and
// the standalone checker `verify::check()` (check.cpp). The checker's trust
// model is deliberately narrow: it re-expands the instance with
// lis::expand_ideal / lis::expand_doubled (definitional data-structure code)
// and re-walks its edges — it shares no code with the solvers in src/mg
// (mcm.cpp, analysis.cpp) or src/core, and never computes an SCC, a cycle
// mean minimum, or a sizing itself. See docs/certificates.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lis/lis_graph.hpp"
#include "util/json.hpp"
#include "util/rational.hpp"

namespace lid::verify {

/// A closed walk of a marked-graph expansion, as the place ids traversed, and
/// its claimed token/place mean.
struct CycleWitness {
  util::Rational mean;
  std::vector<std::int64_t> places;
};

/// Optimality evidence for "theta is the minimum cycle mean of this
/// expansion" (or, when `acyclic`, "this expansion has no cycle at all").
///
/// The checker validates, without computing SCCs or solving anything:
///   * every place u -> v with component[u] != component[v] satisfies
///     component[u] > component[v] — so any cycle stays inside one label
///     class (the labels are a reverse topological order of the
///     condensation, but the checker only needs the local edge rule);
///   * every place inside a label class c (which must be marked cyclic)
///     satisfies, with lambda[c] = p/q and integer potentials s,
///         q*tokens - p + s[dst] - s[src] >= 0,
///     which summed around any cycle of c proves its mean >= lambda[c];
///   * lambda[c] >= theta for every cyclic class, and the witness cycle is a
///     genuine closed walk of mean exactly theta — so theta is attained and
///     no cycle beats it. When `acyclic`, every place must cross label
///     classes, which proves there is no cycle.
struct McmWitness {
  util::Rational theta;
  bool acyclic = false;
  CycleWitness critical;               ///< meaningful when !acyclic
  std::vector<int> component;          ///< per transition
  std::vector<char> component_cyclic;  ///< per label class
  std::vector<util::Rational> lambda;  ///< per label class
  std::vector<std::int64_t> potential; ///< per transition, scaled by lambda[c].den()
};

/// One generated token-deficit constraint from the lazy sizing solver: any
/// sizing that reaches `target` must add at least `deficit` tokens across the
/// input queues of `channels`, because `cycle` (a closed walk of the pristine
/// d[G] whose only sizable places are those queues) would otherwise keep a
/// mean below the target.
struct DeficitConstraint {
  std::int64_t deficit = 0;
  std::vector<std::int64_t> channels;  ///< channels whose queue backedge is on the cycle
  std::vector<std::int64_t> cycle;     ///< place ids in the pristine d[G]
};

/// Extra tokens assigned to one channel's input queue by a sizing.
struct QueueAssignment {
  std::int64_t channel = 0;
  std::int64_t extra = 0;
};

enum class Kind { kAnalyze, kSizing };

/// A certificate for one analysis verdict on one netlist.
///
/// kAnalyze: `ideal` proves theta(G) on expand_ideal, `practical` proves
/// theta(d[G]) on expand_doubled.
///
/// kSizing: `ideal` proves the ceiling theta(G); `weights`/`total` name the
/// sizing; `achieved` proves the post-sizing minimum cycle mean of d[G] with
/// the weights applied (feasibility); when `constraint_count >= 0` the
/// lazy solver's generating constraint set is attached as the lower-bound
/// witness (`constraint_count` must equal `constraints.size()` so a
/// truncated set is detectable).
struct Certificate {
  Kind kind = Kind::kAnalyze;
  /// fingerprint() of the certified netlist, the address a registered model
  /// has in serve::Registry, so a certificate is addressed by the model it
  /// certifies.
  std::string fingerprint;
  McmWitness ideal;
  McmWitness practical;  ///< kAnalyze only

  // kSizing only.
  util::Rational target;
  std::vector<QueueAssignment> weights;
  std::int64_t total = 0;
  std::int64_t constraint_count = -1;  ///< -1 = no lower-bound section
  std::vector<DeficitConstraint> constraints;
  McmWitness achieved;
};

/// "lis-" + 16 hex digits of util::fnv1a64 over `canonical_text`, which
/// must already be canonical (lis::to_text). serve::Registry::fingerprint
/// is this function.
std::string canonical_fingerprint(std::string_view canonical_text);

/// The canonical fingerprint of a netlist: canonical_fingerprint of
/// lis::to_text(g).
std::string fingerprint(const lis::LisGraph& g);

/// Serializes `cert` into `w` as one JSON object (float-free: rationals are
/// "N" / "N/D" strings, everything else integers). Deterministic: equal
/// certificates produce identical bytes.
void write_certificate(util::JsonWriter& w, const Certificate& cert);

/// write_certificate into a fresh compact document.
std::string to_json(const Certificate& cert);

/// Outcome of parsing a certificate document.
struct CertificateParse {
  bool ok = false;
  Certificate certificate;
  std::string error;

  explicit operator bool() const { return ok; }
};

/// Parses a certificate from a JSON value / document. Shape errors are
/// reported in `error`; semantic validity is check()'s job.
CertificateParse parse_certificate(const util::Json& value);
CertificateParse parse_certificate_text(const std::string& text);

// ---------------------------------------------------------------------------
// The checker (check.cpp).

/// Why a certificate was rejected.
enum class Reject {
  kNone = 0,
  kMalformed,                ///< ids out of range / sizes inconsistent
  kFingerprintMismatch,      ///< certificate addresses a different netlist
  kComponentOrderViolation,  ///< a cross-class place does not descend
  kPotentialViolation,       ///< the potential inequality fails on a place
  kLambdaBelowTheta,         ///< a class bound undercuts the claimed theta
  kBadCycle,                 ///< witness places do not form a closed walk
  kCycleMeanMismatch,        ///< witness mean != claimed theta
  kWeightsInvalid,           ///< bad channel id / negative extra tokens
  kTotalMismatch,            ///< total != sum of weights
  kTargetMissed,             ///< achieved theta below the sizing target
  kTruncatedConstraints,     ///< constraint_count != constraints.size()
  kConstraintUnsound,        ///< a constraint is not implied by the instance
};

const char* to_string(Reject reason);

/// Verdict of check(): ok, or a structured reason plus a human detail line.
struct CheckResult {
  bool ok = false;
  Reject reason = Reject::kNone;
  std::string detail;

  static CheckResult pass() { return {true, Reject::kNone, {}}; }
  static CheckResult fail(Reject reason, std::string detail) {
    return {false, reason, std::move(detail)};
  }
};

/// Validates `cert` against `instance` in O(E): re-expands the instance,
/// re-walks every place once per witness, and checks the integer potential
/// inequalities in 128-bit arithmetic. Never runs a solver.
CheckResult check(const lis::LisGraph& instance, const Certificate& cert);

}  // namespace lid::verify
