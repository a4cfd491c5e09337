// Minimum cycle mean and maximal sustainable throughput (MST) of a timed
// marked graph with unit delays (Sec. III-C of the paper).
//
// The cycle mean of a cycle is its token count divided by its place count;
// the cycle time π(G) of a strongly connected graph is the reciprocal of the
// minimum cycle mean, and the MST is
//     θ(G) = 1                         if G is acyclic,
//     θ(G) = min(1, 1/π(G))            if G is strongly connected,
//     θ(G) = min over SCCs of θ(SCC)   otherwise.
// Since every cycle lives inside one SCC, the general case reduces to
// min(1, minimum cycle mean over the whole graph).
//
// Two independent algorithms are provided: Karp's dynamic program (the
// correctness reference, O(V·E)) and Howard's policy iteration (usually much
// faster, also yields a critical cycle). Both use exact rational arithmetic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mg/marked_graph.hpp"
#include "util/rational.hpp"

namespace lid::mg {

/// A cycle together with its (token/place) mean.
struct MeanCycle {
  util::Rational mean;
  std::vector<PlaceId> cycle;
};

struct WorkspaceImpl;
class Workspace;

/// Optimality evidence for a minimum-cycle-mean computation, in the shape an
/// independent O(E) checker can validate without re-running any solver:
///
///   * `critical` — a minimum-mean cycle (place ids), absent when acyclic;
///   * `component[t]` — a component label per transition such that every
///     cross-component place satisfies component[src] > component[dst]
///     (a reverse topological order of the condensation), so any cycle stays
///     inside one label class;
///   * per cyclic component c, a local bound `lambda[c] = p/q` with
///     lambda[c] >= critical->mean (mcm_evidence reports c's exact minimum
///     cycle mean), and integer node potentials
///     `potential[t]` (meaning pi_t = potential[t] / q) satisfying, for every
///     place u -> v inside c with w tokens,
///         q*w - p + potential[v] - potential[u] >= 0.
///     Summing around any cycle of c proves its mean >= lambda[c] >= theta;
///     the witness cycle attaining mean == theta proves optimality.
///
/// Potentials come from Howard's converged value vector (validated in one
/// O(E) pass) with an exact Bellman-Ford fallback, so emitted evidence is
/// always self-consistent.
struct McmEvidence {
  std::optional<MeanCycle> critical;
  std::vector<int> component;          ///< per transition
  std::vector<char> component_cyclic;  ///< per component
  std::vector<util::Rational> lambda;  ///< per component (1 for acyclic ones)
  std::vector<std::int64_t> potential; ///< per transition, scaled by lambda[c].den()
};

/// Minimum cycle mean with checkable optimality evidence (see McmEvidence):
/// one cold Howard solve per cyclic SCC, in scc() order, from each node's
/// minimum-weight out-edge.
McmEvidence mcm_evidence(const MarkedGraph& g);

/// The same cold solve through `ws`, whose converged policies stay behind so
/// a later min_cycle_mean_howard on g's structure warm-starts from them.
McmEvidence mcm_evidence(const MarkedGraph& g, Workspace& ws);

/// θ of an evidence pass, exactly mst() of its graph (throws alike).
util::Rational mst(const McmEvidence& evidence);

/// Counters a Workspace accumulates across solves (never reset). All are
/// exact for a given call sequence; the last two count the work behind the
/// rounds (a full pass evaluates and examines every node of its component).
struct WorkspaceStats {
  std::int64_t cold_starts = 0;    ///< per-SCC solves seeded from scratch
  std::int64_t warm_restarts = 0;  ///< per-SCC solves seeded from a previous policy
  std::int64_t improvement_rounds = 0;  ///< total policy-iteration rounds run
  std::int64_t node_evaluations = 0;    ///< nodes whose value a round (re)computed
  std::int64_t node_examinations = 0;   ///< nodes the improvement phases examined
};

/// Minimum cycle mean via Karp's algorithm, or nullopt if `g` is acyclic.
/// Independent correctness reference for cross-checks; its per-SCC walk
/// table costs O(V^2) memory, so keep it to small instances — every
/// production path (mst, analysis, certificates) runs Howard.
std::optional<util::Rational> min_cycle_mean_karp(const MarkedGraph& g);

/// Minimum cycle mean and one critical cycle via Howard's policy iteration,
/// or nullopt if `g` is acyclic.
std::optional<MeanCycle> min_cycle_mean_howard(const MarkedGraph& g);

/// Workspace-backed Howard solve. Writes the minimum mean and one critical
/// cycle into `out` (reusing `out.cycle`'s buffer) and returns true; returns
/// false when `g` is acyclic, leaving `out.cycle` cleared and `out.mean`
/// untouched. Results are deterministic for a given call sequence, but a
/// warm-started solve may report a *different* (equally minimal) critical
/// cycle than a cold one.
bool min_cycle_mean_howard(const MarkedGraph& g, Workspace& ws, MeanCycle& out);

/// Reusable state for warm-started Howard solves: cached SCC views, the last
/// converged policy per SCC, and every scratch vector the kernel needs.
///
/// Warm-start contract: a workspace may be handed any sequence of graphs, but
/// it only warm-starts (refreshing edge weights in place and seeding policy
/// iteration from the previous policy) when the graph has the SAME structure
/// as the previous call — identical transitions and places with identical
/// endpoints, differing at most in marking. This is exactly the lazy sizing
/// loop's shape (re-solves after token perturbations). Structure changes are
/// detected via a fingerprint and demoted to a cold start, never a wrong
/// answer. Not thread-safe: use one workspace per thread.
class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(Workspace&&) noexcept;
  Workspace& operator=(Workspace&&) noexcept;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  [[nodiscard]] const WorkspaceStats& stats() const;

 private:
  friend bool min_cycle_mean_howard(const MarkedGraph& g, Workspace& ws, MeanCycle& out);
  friend McmEvidence mcm_evidence(const MarkedGraph& g, Workspace& ws);

  std::unique_ptr<WorkspaceImpl> impl_;
};

/// Maximal sustainable throughput θ(g) per the definition above.
/// Throws std::invalid_argument if some cycle carries no token (deadlock —
/// the throughput would be zero and the LIS model forbids such markings).
util::Rational mst(const MarkedGraph& g);

}  // namespace lid::mg
