// A small text format for LIS netlists, so systems can be stored in files
// and driven through the command-line tool.
//
//   # comment — everything after '#' is ignored
//   core A
//   core B
//   channel A -> B rs=1 q=2     # rs and q are optional (defaults 0 and 1)
//
// Core names may contain any non-whitespace characters except '#'.
//
// DEPRECATED as a public entry point: new call sites should use the facade
// in src/lid_api.hpp (lid::load_netlist / parse_netlist / save_netlist),
// which wraps these functions with Result<T> error reporting instead of
// exceptions. This header remains the implementation layer.
#pragma once

#include <string>
#include <vector>

#include "lis/lis_graph.hpp"

namespace lid::lis {

/// Serializes a netlist to the text format (stable, round-trip safe).
std::string to_text(const LisGraph& lis);

/// Parses the text format in one pass over `text`, splitting lines and
/// tokens as std::getline and `istream >>` do in the C locale (the rules are
/// in docs/file-format.md). Throws std::invalid_argument with the offending
/// line number on malformed input (unknown directive, duplicate core name,
/// unknown core in a channel, bad rs/q value). A queue capacity of zero is
/// accepted — it is a *semantic* defect (every correct LIS has q >= 1) that
/// the lint layer diagnoses as L002/L001, not a syntax error.
LisGraph from_text(const std::string& text);

/// Where each entity of a parsed netlist came from, so diagnostics can point
/// at the exact source line. Indexed by CoreId / ChannelId; line numbers are
/// 1-based, `file` is empty for in-memory text.
struct Provenance {
  std::string file;
  std::vector<int> core_line;
  std::vector<int> channel_line;

  /// 1-based source line of core `v`, or 0 when unknown.
  [[nodiscard]] int line_of_core(CoreId v) const {
    const auto i = static_cast<std::size_t>(v);
    return v >= 0 && i < core_line.size() ? core_line[i] : 0;
  }
  /// 1-based source line of channel `c`, or 0 when unknown.
  [[nodiscard]] int line_of_channel(ChannelId c) const {
    const auto i = static_cast<std::size_t>(c);
    return c >= 0 && i < channel_line.size() ? channel_line[i] : 0;
  }
};

/// A parse result that keeps file/line provenance alongside the graph.
struct ParsedNetlist {
  LisGraph graph;
  Provenance provenance;
};

/// Like from_text, but records the source line of every core and channel
/// (and `file`, echoed into Provenance::file) for diagnostics.
ParsedNetlist from_text_with_provenance(const std::string& text, std::string file = {});

/// File wrappers. Throw std::runtime_error on I/O failure.
LisGraph load_netlist(const std::string& path);
void save_netlist(const LisGraph& lis, const std::string& path);

}  // namespace lid::lis
