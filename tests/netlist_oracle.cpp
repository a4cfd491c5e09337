#include "netlist_oracle.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace lid::lis::oracle {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("netlist line " + std::to_string(line) + ": " + message);
}

/// Parses "key=value" where value must be a nonnegative integer.
int parse_kv(const std::string& token, const std::string& key, std::size_t line) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) fail(line, "expected " + key + "=<n>, got '" + token + "'");
  const std::string value = token.substr(prefix.size());
  try {
    std::size_t pos = 0;
    const int v = std::stoi(value, &pos);
    if (pos != value.size() || v < 0) throw std::invalid_argument("bad");
    return v;
  } catch (const std::exception&) {
    fail(line, "bad integer in '" + token + "'");
  }
}

}  // namespace

ParsedNetlist from_text_with_provenance(const std::string& text, std::string file) {
  ParsedNetlist out;
  out.provenance.file = std::move(file);
  LisGraph& lis = out.graph;
  std::map<std::string, CoreId> cores;

  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string directive;
    if (!(line >> directive)) continue;  // blank line

    if (directive == "core") {
      std::string name;
      if (!(line >> name)) fail(line_no, "core needs a name");
      int latency = 1;
      std::string token;
      while (line >> token) {
        if (token.rfind("latency=", 0) == 0) {
          latency = parse_kv(token, "latency", line_no);
          if (latency < 1) fail(line_no, "latency must be at least 1");
        } else {
          fail(line_no, "unknown core attribute '" + token + "'");
        }
      }
      const auto [it, inserted] = cores.emplace(name, CoreId{});
      if (!inserted) fail(line_no, "duplicate core '" + name + "'");
      it->second = lis.add_core(name);
      lis.set_core_latency(it->second, latency);
      out.provenance.core_line.push_back(static_cast<int>(line_no));
      continue;
    }
    if (directive == "channel") {
      std::string src;
      std::string arrow;
      std::string dst;
      if (!(line >> src >> arrow >> dst) || arrow != "->") {
        fail(line_no, "expected: channel <src> -> <dst> [rs=N] [q=N]");
      }
      const auto src_it = cores.find(src);
      if (src_it == cores.end()) fail(line_no, "unknown core '" + src + "'");
      const auto dst_it = cores.find(dst);
      if (dst_it == cores.end()) fail(line_no, "unknown core '" + dst + "'");
      int rs = 0;
      int q = 1;
      std::string token;
      while (line >> token) {
        if (token.rfind("rs=", 0) == 0) {
          rs = parse_kv(token, "rs", line_no);
        } else if (token.rfind("q=", 0) == 0) {
          // q = 0 parses: it is a semantic defect (lint L002/L001), not a
          // syntax error, so static diagnostics can point at this line.
          q = parse_kv(token, "q", line_no);
        } else {
          fail(line_no, "unknown channel attribute '" + token + "'");
        }
      }
      lis.add_channel(src_it->second, dst_it->second, rs, q);
      out.provenance.channel_line.push_back(static_cast<int>(line_no));
      continue;
    }
    fail(line_no, "unknown directive '" + directive + "'");
  }
  return out;
}

std::string to_text(const LisGraph& lis) {
  std::ostringstream os;
  os << "# latency-insensitive system: " << lis.num_cores() << " cores, " << lis.num_channels()
     << " channels\n";
  for (CoreId v = 0; v < static_cast<CoreId>(lis.num_cores()); ++v) {
    os << "core " << lis.core_name(v);
    if (lis.core_latency(v) != 1) os << " latency=" << lis.core_latency(v);
    os << "\n";
  }
  for (ChannelId c = 0; c < static_cast<ChannelId>(lis.num_channels()); ++c) {
    const Channel& ch = lis.channel(c);
    os << "channel " << lis.core_name(ch.src) << " -> " << lis.core_name(ch.dst);
    if (ch.relay_stations != 0) os << " rs=" << ch.relay_stations;
    if (ch.queue_capacity != 1) os << " q=" << ch.queue_capacity;
    os << "\n";
  }
  return os.str();
}

}  // namespace lid::lis::oracle

namespace lid::des::oracle {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

[[noreturn]] void bad_line(const std::string& line, const std::string& why) {
  throw std::invalid_argument("bad DES annotation '" + line + "': " + why);
}

/// "key=value" -> value when the key matches, nullopt otherwise.
std::optional<std::string> keyed(const std::string& token, const std::string& key) {
  if (token.size() <= key.size() + 1 || token.compare(0, key.size(), key) != 0 ||
      token[key.size()] != '=') {
    return std::nullopt;
  }
  return token.substr(key.size() + 1);
}

}  // namespace

Profile parse_profile(const std::string& lis_text, const lis::LisGraph& lis) {
  Profile profile;
  profile.channel_latency.assign(lis.num_channels(), std::nullopt);
  profile.core_arrival.assign(lis.num_cores(), std::nullopt);

  std::istringstream is(lis_text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line.compare(start, 2, "#!") != 0) continue;
    const std::vector<std::string> tokens = tokenize(line.substr(start + 2));
    if (tokens.empty()) bad_line(line, "empty directive");
    if (tokens[0] == "channel") {
      if (tokens.size() != 3) bad_line(line, "expected '#! channel <index> latency=<spec>'");
      // The index follows the netlist integer rule (docs/file-format.md):
      // std::stoi over the whole token, nonnegative. (The reader this oracle
      // was taken from used std::stoul on a prefix, so "1x" read as 1; the
      // rule changed in both readers at once.)
      std::size_t index = 0;
      try {
        std::size_t used = 0;
        const int value = std::stoi(tokens[1], &used);
        if (used != tokens[1].size() || value < 0) throw std::invalid_argument(tokens[1]);
        index = static_cast<std::size_t>(value);
      } catch (const std::exception&) {
        bad_line(line, "channel index is not a number");
      }
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
      if (core == graph::kInvalidNode) bad_line(line, "unknown core '" + tokens[1] + "'");
      const auto spec = keyed(tokens[2], "arrival");
      if (!spec) bad_line(line, "expected arrival=<spec>");
      const auto arrival = parse_arrival_spec(*spec);
      if (!arrival) bad_line(line, "unparseable arrival spec '" + *spec + "'");
      auto& slot = profile.core_arrival[static_cast<std::size_t>(core)];
      if (slot) bad_line(line, "duplicate source assignment");
      slot = *arrival;
    } else {
      bad_line(line, "unknown directive '" + tokens[0] + "'");
    }
  }
  return profile;
}

}  // namespace lid::des::oracle
