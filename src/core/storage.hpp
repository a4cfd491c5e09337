// Physical storage requirements of a practical LIS.
//
// The marked-graph abstraction lumps all storage of a pipeline stage into one
// place "that can hold multiple tokens when stalling occurs" (Fig. 4). A
// hardware implementation must provision real registers for the worst case,
// so the designer-facing question is: how many items can each channel's
// lumped input stage ever hold? Classic marked-graph theory gives the exact
// structural bound (mg/analysis.hpp): the minimum initial token count over
// the doubled-graph cycles through the place.
#pragma once

#include <cstdint>
#include <vector>

#include "lis/lis_graph.hpp"

namespace lid::core {

/// Worst-case occupancy of one channel's delivery place.
struct ChannelStorage {
  lis::ChannelId channel = graph::kInvalidEdge;
  /// Structural bound on items simultaneously held at the destination's
  /// lumped input stage (queue + absorbed relay-station/latch contents).
  std::int64_t occupancy_bound = 0;
  /// The configured queue capacity q, for comparison.
  int configured_capacity = 1;
  /// Relay stations on the channel.
  int relay_stations = 0;
};

/// Bounds for every channel of the (finite-queue, backpressured) LIS.
std::vector<ChannelStorage> storage_bounds(const lis::LisGraph& lis);

/// The same bounds on an already-built `doubled` = lis::expand_doubled(lis).
std::vector<ChannelStorage> storage_bounds(const lis::LisGraph& lis,
                                           const lis::Expansion& doubled);

/// Total storage bound across all channels — the footprint a synthesized
/// implementation of the lumped abstraction must provision.
std::int64_t total_storage_bound(const lis::LisGraph& lis);

}  // namespace lid::core
