// The netlist and `#!` annotation readers as they were before the
// one-pass rewrite over string_views: one std::istringstream per line and a
// std::map name index; and the canonical writer as it was before it
// appended into one reserved string. Their bodies are kept verbatim,
// renamespaced, as the oracle that test_netlist_fuzz compares the production
// readers and writer against.
#pragma once

#include <string>

#include "des/des.hpp"
#include "lis/netlist_io.hpp"

namespace lid::lis::oracle {

ParsedNetlist from_text_with_provenance(const std::string& text, std::string file = {});

/// The canonical text as the writer produced it before it appended into one
/// string: one `<<` at a time into a std::ostringstream.
std::string to_text(const LisGraph& lis);

}  // namespace lid::lis::oracle

namespace lid::des::oracle {

Profile parse_profile(const std::string& lis_text, const lis::LisGraph& lis);

}  // namespace lid::des::oracle
