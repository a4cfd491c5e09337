// Building a Token-Deficit instance from a LIS — the front half of the
// queue-sizing pipeline (Sec. VII-A).
//
// Given a LIS, we expand the doubled marked graph d[G], enumerate its
// elementary cycles, keep the *problematic* ones (mean below the ideal MST
// θ(G); by paper simplification 1 these must contain at least one backedge
// and one relay-station output place), and record, per cycle, its token
// deficit and the input-queue backedges lying on it — the only places a
// designer can add capacity to.
//
// When the LIS is a DAG of SCCs with relay stations only on inter-SCC
// channels (paper simplification 4), the builder first collapses every SCC
// to a single core, which shrinks the cycle count by orders of magnitude
// while preserving each collapsed cycle's deficit exactly (intra-SCC path
// segments contribute tokens equal to their length at q = 1). Note that the
// collapse also restricts the sizable queues to the inter-SCC channels — as
// the paper prescribes ("adding tokens to the inter-SCC edges only") — so
// its optimum is an upper bound on the full instance's optimum, which may
// exploit intra-SCC queues shared between many degrading cycles. It always
// restores the ideal MST.
//
// DEPRECATED as a public entry point: new call sites should use
// lid::size_queues in src/lid_api.hpp, or engine::AnalysisCache when
// stacking analyses. This header remains the implementation layer those
// build on.
#pragma once

#include <cstdint>
#include <vector>

#include "core/token_deficit.hpp"
#include "lis/lis_graph.hpp"
#include "util/cancel.hpp"
#include "util/rational.hpp"

namespace lid::core {

/// Options for instance construction.
struct QsBuildOptions {
  /// Hard cap on enumerated cycles (eager solvers only); 0 = unlimited. When
  /// hit, `truncated` is set and the instance covers only the cycles found.
  std::size_t max_cycles = 2'000'000;
  /// Apply the SCC-collapse fast path when the topology allows it.
  bool allow_scc_collapse = true;
  /// Target throughput the sizing must reach. Zero (the default) means the
  /// ideal MST θ(G); a smaller positive target yields a cheaper partial
  /// repair (deficits are computed against it instead). Values above θ(G)
  /// are clamped to θ(G) — backpressure can never beat the ideal.
  util::Rational target_mst = util::Rational(0);
  /// Cooperative cancellation for the enumeration phase. A fired token stops
  /// the build early with `cancelled` set; the partial instance must not be
  /// served as an answer (it is timing-dependent). The default never cancels.
  util::CancelToken cancel;
};

/// A queue-sizing problem: the TD instance plus the channel map.
struct QsProblem {
  /// Ideal MST θ(G) of the LIS (infinite queues).
  util::Rational theta_ideal;
  /// Practical MST θ(d[G]) with the current queue capacities.
  util::Rational theta_practical;
  /// The throughput the instance's deficits target (== theta_ideal unless a
  /// lower target was requested).
  util::Rational theta_target;
  /// TD set index -> channel whose input queue that set sizes.
  std::vector<lis::ChannelId> channels;
  /// The TD instance (one element per problematic cycle).
  TdInstance td;

  // --- diagnostics ---
  /// Cycles enumerated in the (possibly collapsed) doubled graph.
  std::size_t cycles_enumerated = 0;
  /// Cycles with a positive deficit (before TD simplification).
  std::size_t problem_cycles = 0;
  /// True when cycle enumeration hit the cap.
  bool truncated = false;
  /// True when the cancel token stopped enumeration before it finished.
  bool cancelled = false;
  /// True when the SCC-collapse fast path was used.
  bool scc_collapsed = false;

  /// True when the practical MST falls short of the (possibly lowered)
  /// target — i.e. the TD instance has work to do.
  [[nodiscard]] bool has_degradation() const { return theta_practical < theta_target; }
};

/// Builds the queue-sizing problem for `lis`.
QsProblem build_qs_problem(const lis::LisGraph& lis, const QsBuildOptions& options = {});

/// Like build_qs_problem, but reuses already-computed θ(G) and θ(d[G])
/// (e.g. from an engine::AnalysisCache) instead of expanding the netlist two
/// extra times. The thetas must be those of `lis` itself.
QsProblem build_qs_problem_with_mst(const lis::LisGraph& lis, const util::Rational& theta_ideal,
                                    const util::Rational& theta_practical,
                                    const QsBuildOptions& options = {});

/// Applies a TD solution: channel `problem.channels[s]` gains
/// `weights[s]` extra queue slots. Returns the modified copy.
lis::LisGraph apply_solution(const lis::LisGraph& lis, const QsProblem& problem,
                             const std::vector<std::int64_t>& weights);

/// True when relay stations appear only on channels between different SCCs
/// of the LIS netlist — the precondition of the SCC-collapse fast path.
bool relay_stations_only_between_sccs(const lis::LisGraph& lis);

/// The graph a TD instance is built against: the original netlist, or its
/// SCC-collapsed form when simplification 4 applies. Shared by the eager
/// builder and the lazy constraint-generation driver so both size exactly
/// the same graph (and therefore agree on deficits and totals).
struct QsBuildTarget {
  /// True when the collapse was both allowed and profitable.
  bool collapsed_used = false;
  /// The collapsed netlist; meaningful only when `collapsed_used`.
  lis::LisGraph collapsed;
  /// Collapsed channel -> original channel; meaningful only when
  /// `collapsed_used`.
  std::vector<lis::ChannelId> channel_origin;

  /// The graph to expand and size (`original` is the netlist this target was
  /// selected from).
  [[nodiscard]] const lis::LisGraph& graph(const lis::LisGraph& original) const {
    return collapsed_used ? collapsed : original;
  }
  /// Maps a channel of graph() back to the original netlist numbering.
  [[nodiscard]] lis::ChannelId origin(lis::ChannelId ch) const {
    return collapsed_used ? channel_origin[static_cast<std::size_t>(ch)] : ch;
  }
};

/// Decides whether the SCC-collapse fast path applies (see the header
/// comment for the exact conditions) and builds the collapsed netlist if so.
QsBuildTarget select_build_target(const lis::LisGraph& lis, const QsBuildOptions& options);

/// Minimum extra tokens that bring a cycle with `tokens` tokens over `places`
/// places up to mean `theta`: the smallest D >= 0 with
/// (tokens + D) / places >= theta.
std::int64_t cycle_deficit(std::int64_t tokens, std::int64_t places, const util::Rational& theta);

}  // namespace lid::core
