#include "des/annotations.hpp"

#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/split.hpp"

namespace lid::des {

namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  util::Tokens split(line);
  for (std::string_view token; split.next(token);) tokens.push_back(token);
  return tokens;
}

[[noreturn]] void bad_line(std::string_view line, const std::string& why) {
  throw std::invalid_argument("bad DES annotation '" + std::string(line) + "': " + why);
}

/// "key=value" -> value when the key matches, nullopt otherwise.
std::optional<std::string> keyed(std::string_view token, std::string_view key) {
  if (token.size() <= key.size() + 1 || !token.starts_with(key) || token[key.size()] != '=') {
    return std::nullopt;
  }
  return std::string(token.substr(key.size() + 1));
}

}  // namespace

Profile parse_profile(const std::string& lis_text, const lis::LisGraph& lis) {
  Profile profile;
  profile.channel_latency.assign(lis.num_channels(), std::nullopt);
  profile.core_arrival.assign(lis.num_cores(), std::nullopt);

  util::Lines lines(lis_text);
  for (std::string_view line; lines.next(line);) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos || line.substr(start, 2) != "#!") continue;
    const std::vector<std::string_view> tokens = tokenize(line.substr(start + 2));
    if (tokens.empty()) bad_line(line, "empty directive");
    if (tokens[0] == "channel") {
      if (tokens.size() != 3) bad_line(line, "expected '#! channel <index> latency=<spec>'");
      // The index is a netlist integer (docs/file-format.md): "1x" or "1e3"
      // is not a number, "-1" is not a channel.
      const std::optional<int> parsed = util::parse_netlist_int(tokens[1]);
      if (!parsed) bad_line(line, "channel index is not a number");
      const auto index = static_cast<std::size_t>(*parsed);
      if (index >= lis.num_channels()) bad_line(line, "channel index out of range");
      const auto spec = keyed(tokens[2], "latency");
      if (!spec) bad_line(line, "expected latency=<spec>");
      const auto dist = parse_latency_dist(*spec);
      if (!dist) bad_line(line, "unparseable latency spec '" + *spec + "'");
      if (profile.channel_latency[index]) bad_line(line, "duplicate channel assignment");
      profile.channel_latency[index] = *dist;
    } else if (tokens[0] == "source") {
      if (tokens.size() != 3) bad_line(line, "expected '#! source <core> arrival=<spec>'");
      lis::CoreId core = graph::kInvalidNode;
      for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
        if (lis.core_name(v) == tokens[1]) {
          core = v;
          break;
        }
      }
      if (core == graph::kInvalidNode) {
        bad_line(line, "unknown core '" + std::string(tokens[1]) + "'");
      }
      const auto spec = keyed(tokens[2], "arrival");
      if (!spec) bad_line(line, "expected arrival=<spec>");
      const auto arrival = parse_arrival_spec(*spec);
      if (!arrival) bad_line(line, "unparseable arrival spec '" + *spec + "'");
      auto& slot = profile.core_arrival[static_cast<std::size_t>(core)];
      if (slot) bad_line(line, "duplicate source assignment");
      slot = *arrival;
    } else {
      bad_line(line, "unknown directive '" + std::string(tokens[0]) + "'");
    }
  }
  return profile;
}

std::string profile_text(const Profile& profile, const lis::LisGraph& lis) {
  LID_ENSURE(profile.channel_latency.empty() ||
                 profile.channel_latency.size() == lis.num_channels(),
             "profile_text: profile channel count does not match the netlist");
  LID_ENSURE(profile.core_arrival.empty() || profile.core_arrival.size() == lis.num_cores(),
             "profile_text: profile core count does not match the netlist");
  std::ostringstream os;
  for (std::size_t c = 0; c < profile.channel_latency.size(); ++c) {
    if (!profile.channel_latency[c]) continue;
    os << "#! channel " << c << " latency=" << profile.channel_latency[c]->to_string() << "\n";
  }
  for (std::size_t v = 0; v < profile.core_arrival.size(); ++v) {
    if (!profile.core_arrival[v]) continue;
    os << "#! source " << lis.core_name(static_cast<lis::CoreId>(v))
       << " arrival=" << profile.core_arrival[v]->to_string() << "\n";
  }
  return os.str();
}

Profile random_profile(const lis::LisGraph& lis, const RandomProfileOptions& options,
                       util::Rng& rng) {
  LID_ENSURE(options.max_latency >= 1 && options.max_period >= 1,
             "random_profile: bounds must be at least 1");
  Profile profile;
  profile.channel_latency.assign(lis.num_channels(), std::nullopt);
  profile.core_arrival.assign(lis.num_cores(), std::nullopt);
  const int max_latency = static_cast<int>(options.max_latency);
  const int max_period = static_cast<int>(options.max_period);
  for (std::size_t c = 0; c < lis.num_channels(); ++c) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        profile.channel_latency[c] = LatencyDist::fixed(rng.uniform_int(1, max_latency));
        break;
      case 1: {
        const int lo = rng.uniform_int(1, max_latency);
        profile.channel_latency[c] = LatencyDist::uniform(lo, rng.uniform_int(lo, max_latency));
        break;
      }
      default: {
        // Success probability in [1/max_latency, 1] keeps the mean <= max.
        const int den = rng.uniform_int(1, max_latency);
        profile.channel_latency[c] = LatencyDist::geometric(1, den);
        break;
      }
    }
  }
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
    if (lis.structure().in_degree(v) != 0) continue;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        profile.core_arrival[static_cast<std::size_t>(v)] =
            ArrivalSpec::periodic(rng.uniform_int(1, max_period));
        break;
      case 1:
        profile.core_arrival[static_cast<std::size_t>(v)] =
            ArrivalSpec::poisson(1, rng.uniform_int(1, max_period));
        break;
      default: {
        const int on = rng.uniform_int(1, max_period);
        const int off = rng.uniform_int(1, max_period);
        profile.core_arrival[static_cast<std::size_t>(v)] = ArrivalSpec::bursty(on, off);
        break;
      }
    }
  }
  return profile;
}

}  // namespace lid::des
