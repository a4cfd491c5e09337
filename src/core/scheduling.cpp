#include "core/scheduling.hpp"

#include <algorithm>

#include "lis/protocol_sim.hpp"
#include "mg/simulate.hpp"
#include "util/check.hpp"

namespace lid::core {

bool StaticSchedule::fires(lis::CoreId v, std::size_t t) const {
  LID_ENSURE(found, "StaticSchedule::fires: no schedule was found");
  LID_ENSURE(v >= 0 && static_cast<std::size_t>(v) < firing.size(),
             "StaticSchedule::fires: core out of range");
  const auto& pattern = firing[static_cast<std::size_t>(v)];
  if (t < pattern.size()) return pattern[t] != 0;
  const std::size_t into_window = (t - transient) % period;
  return pattern[transient + into_window] != 0;
}

StaticSchedule compute_static_schedule(const lis::LisGraph& lis, std::size_t max_periods) {
  StaticSchedule schedule;
  const lis::Expansion ex = lis::expand_ideal(lis);

  // Collect the per-period firing rows of the cores' input transitions while
  // the simulator looks for a marking recurrence.
  std::vector<std::vector<char>> rows;
  const mg::SimulationResult sim = mg::simulate(
      ex.graph, max_periods, 0, [&](std::size_t, const std::vector<char>& fired) {
        std::vector<char> cores;
        cores.reserve(lis.num_cores());
        for (const mg::TransitionId t : ex.core_transition) {
          cores.push_back(fired[static_cast<std::size_t>(t)]);
        }
        rows.push_back(std::move(cores));
        return true;
      });
  if (!sim.periodic_found) return schedule;  // open/multi-SCC system: no schedule

  schedule.found = true;
  schedule.transient = sim.transient_steps;
  schedule.period = sim.period_steps;
  schedule.throughput = sim.throughput;
  schedule.firing.assign(lis.num_cores(), {});
  const std::size_t horizon = schedule.transient + schedule.period;
  LID_ASSERT(rows.size() >= horizon, "recurrence reported beyond the collected rows");
  for (std::size_t v = 0; v < lis.num_cores(); ++v) {
    auto& pattern = schedule.firing[v];
    pattern.reserve(horizon);
    for (std::size_t t = 0; t < horizon; ++t) pattern.push_back(rows[t][v]);
  }

  // Queue requirements: the ideal run's peak occupancy of each channel's
  // delivery place (the forward hop into the destination shell).
  schedule.required_queues.reserve(lis.num_channels());
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    const mg::PlaceId delivery = ex.forward_places(c).back();
    schedule.required_queues.push_back(
        std::max<std::int64_t>(1, sim.max_tokens[static_cast<std::size_t>(delivery)]));
  }
  return schedule;
}

ScheduleReplay replay_schedule(const lis::LisGraph& lis, const StaticSchedule& schedule,
                               std::size_t periods, std::size_t environment_period) {
  LID_ENSURE(schedule.found, "replay_schedule: schedule was not found");
  lis::LisGraph sized = lis;
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    sized.set_queue_capacity(
        c, static_cast<int>(schedule.required_queues[static_cast<std::size_t>(c)]));
  }

  ScheduleReplay replay;
  lis::ProtocolOptions options;
  options.periods = periods;
  options.behaviors.resize(lis.num_cores());
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
    const bool throttled = environment_period != 0 && v == 0;
    options.behaviors[static_cast<std::size_t>(v)].environment_gate =
        [&schedule, v, throttled, environment_period](std::int64_t t) {
          if (!schedule.fires(v, static_cast<std::size_t>(t))) return false;
          if (throttled && static_cast<std::size_t>(t) % environment_period != 0) return false;
          return true;
        };
  }
  options.observer = [&](std::size_t t, const std::vector<char>& fired) {
    for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
      const bool throttled = environment_period != 0 && v == 0 &&
                             t % environment_period != 0;
      if (schedule.fires(v, t) && !throttled && !fired[static_cast<std::size_t>(v)]) {
        ++replay.violations;  // the schedule demanded a firing the protocol refused
      }
    }
    return true;
  };
  const lis::ProtocolResult result = simulate_protocol(sized, options);
  replay.throughput = result.throughput;
  return replay;
}

}  // namespace lid::core
