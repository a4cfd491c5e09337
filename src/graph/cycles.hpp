// Elementary-cycle enumeration (Johnson's algorithm, multigraph-aware).
//
// The queue-sizing pipeline (Sec. VII-A of the paper) starts from the list of
// cycles of the doubled marked graph, so this enumeration is the workhorse of
// the whole library. The paper notes the cycle count "may blow up fairly
// quickly"; enumeration therefore takes a hard cap and reports truncation
// instead of exhausting memory.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/digraph.hpp"
#include "util/cancel.hpp"

namespace lid::graph {

/// One elementary cycle, as the sequence of edge ids traversed in order.
/// Vertex sequence is implied (edge(e[i]).dst == edge(e[i+1]).src, wrapping).
using Cycle = std::vector<EdgeId>;

/// Options for cycle enumeration.
struct CycleEnumOptions {
  /// Stop after this many cycles have been emitted (0 = unlimited).
  std::size_t max_cycles = 0;
  /// Optional per-edge filter: edges for which this returns false are ignored
  /// entirely (treated as absent). Useful to enumerate only cycles inside a
  /// subgraph. Null = keep all edges.
  std::function<bool(EdgeId)> edge_filter;
  /// Cooperative cancellation, polled at search-tree boundaries. The default
  /// token never cancels.
  util::CancelToken cancel;
};

/// Result of cycle enumeration.
struct CycleEnumResult {
  std::vector<Cycle> cycles;
  /// True when enumeration stopped early (max_cycles reached or cancelled).
  bool truncated = false;
  /// True when specifically the cancel token stopped enumeration; the cycle
  /// list is then a prefix whose length depends on timing — callers must not
  /// treat it as a deterministic answer.
  bool cancelled = false;
};

/// Enumerates all elementary cycles of `g` (cycles that visit each vertex at
/// most once). Parallel edges yield distinct cycles; self-loops are cycles of
/// length one. Complexity O((V + E)(C + 1)) where C is the number of cycles.
CycleEnumResult enumerate_cycles(const Digraph& g, const CycleEnumOptions& options = {});

/// Streaming variant: invokes `on_cycle` for each cycle; enumeration stops
/// early when the callback returns false or `cancel` fires. Returns true if
/// enumeration ran to completion (callback never declined, never cancelled).
bool for_each_cycle(const Digraph& g, const std::function<bool(const Cycle&)>& on_cycle,
                    const std::function<bool(EdgeId)>& edge_filter = nullptr,
                    const util::CancelToken& cancel = {});

/// Cycles emitted by every enumeration in this process so far, added once
/// per enumeration: the runtime half of scripts/check_no_enumeration.sh.
std::uint64_t enumerated_cycles();

/// True if `g` has at least one cycle (self-loops count).
bool has_cycle(const Digraph& g);

/// Finds ONE cycle of `g` (restricted to edges passing `edge_filter` when
/// non-null) by depth-first search in O(V + E) — no enumeration. Returns the
/// cycle as edge ids in traversal order, or an empty vector when the
/// (filtered) graph is acyclic. This is the primitive behind every "is there
/// a token-free cycle?" check: unlike for_each_cycle it is safe on graphs
/// whose elementary-cycle count is astronomical.
Cycle find_cycle(const Digraph& g, const std::function<bool(EdgeId)>& edge_filter = nullptr);

}  // namespace lid::graph
