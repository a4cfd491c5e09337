#include "lis/netlist_io.hpp"

#include <climits>
#include <cstdint>
#include <functional>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "util/file.hpp"
#include "util/split.hpp"

namespace lid::lis {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("netlist line " + std::to_string(line) + ": " + message);
}

/// The value of a token that starts with `key` ("rs=", ...), by the integer
/// rule of util::parse_netlist_int.
int parse_kv(std::string_view token, std::string_view key, std::size_t line) {
  const std::optional<int> value = util::parse_netlist_int(token.substr(key.size()));
  if (!value) fail(line, "bad integer in '" + std::string(token) + "'");
  return *value;
}

/// Core name -> id: open addressing with linear probing over views into the
/// netlist text, which outlives the index.
class NameIndex {
 public:
  /// The id of `name`, or graph::kInvalidNode.
  [[nodiscard]] CoreId find(std::string_view name) const {
    return slots_.empty() ? graph::kInvalidNode : slots_[probe(name, hash(name))].id;
  }

  /// Adds name -> id; false, and nothing added, when `name` is present.
  bool insert(std::string_view name, CoreId id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t h = hash(name);
    Slot& slot = slots_[probe(name, h)];
    if (slot.id != graph::kInvalidNode) return false;
    slot = Slot{name, tag(h), id};
    ++size_;
    return true;
  }

 private:
  struct Slot {
    std::string_view name;
    std::uint32_t tag = 0;  // high hash bits, to skip most name compares
    CoreId id = graph::kInvalidNode;
  };

  static std::size_t hash(std::string_view name) { return std::hash<std::string_view>{}(name); }
  static std::uint32_t tag(std::size_t h) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(h) >> 32);
  }

  /// The slot holding `name`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::string_view name, std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].id != graph::kInvalidNode &&
           (slots_[i].tag != tag(h) || slots_[i].name != name)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.id != graph::kInvalidNode) slots_[probe(slot.name, hash(slot.name))] = slot;
    }
  }

  std::vector<Slot> slots_;  // a power of two in size, at most half full
  std::size_t size_ = 0;
};

}  // namespace

std::string to_text(const LisGraph& lis) {
  // One buffer, reserved up front: the header is at most 108 bytes, a core
  // line its name plus at most 26 ("core ", " latency=", ten digits, "\n"),
  // a channel line its two names plus at most 40.
  std::size_t bytes = 108;
  for (CoreId v = 0; v < static_cast<CoreId>(lis.num_cores()); ++v) {
    bytes += lis.core_name(v).size() + 26;
  }
  for (ChannelId c = 0; c < static_cast<ChannelId>(lis.num_channels()); ++c) {
    const Channel& ch = lis.channel(c);
    bytes += lis.core_name(ch.src).size() + lis.core_name(ch.dst).size() + 40;
  }
  std::string text;
  text.reserve(bytes);
  const auto number = [&text](std::string_view before, auto value, std::string_view after) {
    text.append(before);
    util::append_decimal(text, value);
    text.append(after);
  };
  number("# latency-insensitive system: ", lis.num_cores(), " cores, ");
  number("", lis.num_channels(), " channels\n");
  for (CoreId v = 0; v < static_cast<CoreId>(lis.num_cores()); ++v) {
    text.append("core ").append(lis.core_name(v));
    if (lis.core_latency(v) != 1) number(" latency=", lis.core_latency(v), "");
    text += '\n';
  }
  for (ChannelId c = 0; c < static_cast<ChannelId>(lis.num_channels()); ++c) {
    const Channel& ch = lis.channel(c);
    text.append("channel ").append(lis.core_name(ch.src)).append(" -> ");
    text.append(lis.core_name(ch.dst));
    if (ch.relay_stations != 0) number(" rs=", ch.relay_stations, "");
    if (ch.queue_capacity != 1) number(" q=", ch.queue_capacity, "");
    text += '\n';
  }
  return text;
}

LisGraph from_text(const std::string& text) {
  return from_text_with_provenance(text).graph;
}

ParsedNetlist from_text_with_provenance(const std::string& text, std::string file) {
  ParsedNetlist out;
  out.provenance.file = std::move(file);
  LisGraph& lis = out.graph;
  NameIndex cores;

  util::Lines lines(text);
  std::size_t line_no = 0;
  for (std::string_view raw; lines.next(raw);) {
    ++line_no;
    util::Tokens line(raw.substr(0, raw.find('#')));
    std::string_view directive;
    if (!line.next(directive)) continue;  // blank line

    if (directive == "core") {
      std::string_view name;
      if (!line.next(name)) fail(line_no, "core needs a name");
      int latency = 1;
      for (std::string_view token; line.next(token);) {
        if (!token.starts_with("latency=")) {
          fail(line_no, "unknown core attribute '" + std::string(token) + "'");
        }
        latency = parse_kv(token, "latency=", line_no);
        if (latency < 1) fail(line_no, "latency must be at least 1");
      }
      const auto id = static_cast<CoreId>(lis.num_cores());
      if (!cores.insert(name, id)) fail(line_no, "duplicate core '" + std::string(name) + "'");
      lis.add_core(std::string(name));
      lis.set_core_latency(id, latency);
      out.provenance.core_line.push_back(static_cast<int>(line_no));
      continue;
    }
    if (directive == "channel") {
      std::string_view src;
      std::string_view arrow;
      std::string_view dst;
      if (!line.next(src) || !line.next(arrow) || !line.next(dst) || arrow != "->") {
        fail(line_no, "expected: channel <src> -> <dst> [rs=N] [q=N]");
      }
      const CoreId src_id = cores.find(src);
      if (src_id == graph::kInvalidNode) fail(line_no, "unknown core '" + std::string(src) + "'");
      const CoreId dst_id = cores.find(dst);
      if (dst_id == graph::kInvalidNode) fail(line_no, "unknown core '" + std::string(dst) + "'");
      int rs = 0;
      int q = 1;
      for (std::string_view token; line.next(token);) {
        if (token.starts_with("rs=")) {
          rs = parse_kv(token, "rs=", line_no);
        } else if (token.starts_with("q=")) {
          // q = 0 parses: it is a semantic defect (lint L002/L001), not a
          // syntax error, so static diagnostics can point at this line.
          q = parse_kv(token, "q=", line_no);
        } else {
          fail(line_no, "unknown channel attribute '" + std::string(token) + "'");
        }
      }
      lis.add_channel(src_id, dst_id, rs, q);
      out.provenance.channel_line.push_back(static_cast<int>(line_no));
      continue;
    }
    fail(line_no, "unknown directive '" + std::string(directive) + "'");
  }
  return out;
}

LisGraph load_netlist(const std::string& path) {
  std::string text;
  switch (util::read_file(path, text)) {
    case util::ReadStatus::kCannotOpen:
      throw std::runtime_error("cannot open netlist file: " + path);
    case util::ReadStatus::kReadError:
      throw std::runtime_error("read error on netlist file: " + path);
    case util::ReadStatus::kOk:
      break;
  }
  return from_text(text);
}

void save_netlist(const LisGraph& lis, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write netlist file: " + path);
  out << to_text(lis);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace lid::lis
