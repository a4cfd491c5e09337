#include "core/storage.hpp"

#include "mg/analysis.hpp"
#include "util/check.hpp"

namespace lid::core {

std::vector<ChannelStorage> storage_bounds(const lis::LisGraph& lis) {
  return storage_bounds(lis, lis::expand_doubled(lis));
}

ChannelStorage channel_storage(const lis::LisGraph& lis, const lis::Expansion& expansion,
                               lis::ChannelId c) {
  const lis::Channel& ch = lis.channel(c);
  // The delivery place is the last forward hop (into the destination shell).
  const mg::PlaceId delivery = expansion.forward_places(c).back();
  const auto bound = mg::place_bound(expansion.graph, delivery);
  // Backpressure puts every forward place on a cycle with its channel's
  // queue backedge, so the bound always exists in a doubled expansion.
  LID_ASSERT(bound.has_value(), "doubled-graph delivery place must be bounded");
  ChannelStorage storage;
  storage.channel = c;
  storage.occupancy_bound = *bound;
  storage.configured_capacity = ch.queue_capacity;
  storage.relay_stations = ch.relay_stations;
  return storage;
}

std::vector<ChannelStorage> storage_bounds(const lis::LisGraph& lis,
                                           const lis::Expansion& expansion) {
  std::vector<ChannelStorage> out;
  out.reserve(lis.num_channels());
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    out.push_back(channel_storage(lis, expansion, c));
  }
  return out;
}

std::int64_t total_storage_bound(const lis::LisGraph& lis) {
  std::int64_t total = 0;
  for (const ChannelStorage& s : storage_bounds(lis)) total += s.occupancy_bound;
  return total;
}

}  // namespace lid::core
