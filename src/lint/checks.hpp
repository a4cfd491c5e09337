// The lint checks: structural errors, throughput antipatterns, and
// resource-hazard warnings over a LIS netlist and its marked-graph
// expansions. See docs/lint.md for the full catalog.
//
// Checks are tiered. Error-tier checks (L0xx) are cheap — O(cores +
// channels + places) — and gate everything else: when any fires, the model
// is outside the domain the paper's analyses are defined on, so the deeper
// (and more expensive) warning-tier checks are skipped; `analyze` and
// `size_queues` run exactly this error tier as their pre-flight. The
// throughput antipatterns (L2xx) only fire against an explicit target
// throughput — a netlist that merely *has* backpressure degradation is not
// wrong, so without a target they stay silent (the shipped corpus and the
// paper's own examples lint clean).
#pragma once

#include "lint/diagnostic.hpp"
#include "lis/lis_graph.hpp"
#include "util/rational.hpp"

namespace lid::linter {

struct LintOptions {
  /// Target throughput the L2xx antipattern checks measure against.
  /// Zero (the default) disables them.
  util::Rational target = util::Rational(0);
  /// Run only the error tier (L0xx) — the analyze/size-queues pre-flight.
  bool errors_only = false;
  /// L301 fires when an SCC of d[G] has cyclomatic number (places -
  /// transitions + 1) at least this large — i.e. when the elementary-cycle
  /// count can reach 2^exponent. The default sits above the COFDM case
  /// study (mu = 49) and the densest shipped corpus system (mu = 64), both
  /// of which enumerate tractably in practice; truly dense SCCs (complete
  /// digraphs on 9+ cores) blow past 70 immediately.
  int blowup_exponent = 70;
  /// Cycle-enumeration cap for the L202 token-deficit bound (0 = unlimited).
  std::size_t max_cycles = 500'000;
};

/// Runs the registered checks over `lis` in catalog order. Deterministic:
/// diagnostics depend only on the netlist and the options.
Report run_checks(const lis::LisGraph& lis, const LintOptions& options = {});

/// The same checks, all reading one already-built `doubled` = expand_doubled(lis).
Report run_checks(const lis::LisGraph& lis, const LintOptions& options,
                  const lis::Expansion& doubled);

/// The analyze/size-queues pre-flight: error tier only.
Report run_error_checks(const lis::LisGraph& lis);

}  // namespace lid::linter
