#include "mg/marked_graph.hpp"

#include <sstream>

#include "graph/cycles.hpp"

namespace lid::mg {

MarkedGraph::MarkedGraph(std::vector<TransitionKind> kinds, std::vector<std::string> names,
                         std::vector<graph::Edge> places, std::vector<std::int64_t> tokens,
                         std::vector<PlaceKind> place_kinds)
    : structure_(kinds.size(), std::move(places)),
      tokens_(std::move(tokens)),
      place_kinds_(std::move(place_kinds)),
      kinds_(std::move(kinds)),
      names_(std::move(names)) {
  LID_ENSURE(names_.size() == kinds_.size(), "MarkedGraph: one name per transition");
  LID_ENSURE(tokens_.size() == structure_.num_edges() &&
                 place_kinds_.size() == structure_.num_edges(),
             "MarkedGraph: one token count and kind per place");
  for (const std::int64_t t : tokens_) LID_ENSURE(t >= 0, "MarkedGraph: negative token count");
  for (std::size_t t = 0; t < names_.size(); ++t) {
    if (names_[t].empty()) names_[t] = "t" + std::to_string(t);
  }
}

TransitionId MarkedGraph::add_transition(TransitionKind kind, std::string name) {
  const TransitionId t = structure_.add_node();
  kinds_.push_back(kind);
  if (name.empty()) name = "t" + std::to_string(t);
  names_.push_back(std::move(name));
  return t;
}

PlaceId MarkedGraph::add_place(TransitionId src, TransitionId dst, std::int64_t tokens,
                               PlaceKind kind) {
  check_transition(src);
  check_transition(dst);
  LID_ENSURE(tokens >= 0, "add_place: negative token count");
  const PlaceId p = structure_.add_edge(src, dst);
  tokens_.push_back(tokens);
  place_kinds_.push_back(kind);
  return p;
}

TransitionKind MarkedGraph::transition_kind(TransitionId t) const {
  check_transition(t);
  return kinds_[static_cast<std::size_t>(t)];
}

const std::string& MarkedGraph::transition_name(TransitionId t) const {
  check_transition(t);
  return names_[static_cast<std::size_t>(t)];
}

PlaceKind MarkedGraph::place_kind(PlaceId p) const {
  check_place(p);
  return place_kinds_[static_cast<std::size_t>(p)];
}

std::int64_t MarkedGraph::tokens(PlaceId p) const {
  check_place(p);
  return tokens_[static_cast<std::size_t>(p)];
}

void MarkedGraph::set_tokens(PlaceId p, std::int64_t tokens) {
  check_place(p);
  LID_ENSURE(tokens >= 0, "set_tokens: negative token count");
  tokens_[static_cast<std::size_t>(p)] = tokens;
}

void MarkedGraph::add_tokens(PlaceId p, std::int64_t delta) {
  check_place(p);
  const std::int64_t updated = tokens_[static_cast<std::size_t>(p)] + delta;
  LID_ENSURE(updated >= 0, "add_tokens: token count would become negative");
  tokens_[static_cast<std::size_t>(p)] = updated;
}

std::int64_t MarkedGraph::cycle_tokens(const std::vector<PlaceId>& cycle) const {
  std::int64_t total = 0;
  for (const PlaceId p : cycle) {
    check_place(p);
    total += tokens_[static_cast<std::size_t>(p)];
  }
  return total;
}

void MarkedGraph::validate_lis_structure() const {
  // The initial marking of a LIS-derived marked graph is determined by the
  // producers: a shell latches a valid output before the first period (one
  // token on each of its outgoing forward places) while a relay station is
  // initialized with a void item (zero tokens). Relay stations pass data
  // straight through, so they have exactly one forward input and output.
  for (PlaceId p = 0; p < static_cast<PlaceId>(num_places()); ++p) {
    if (place_kind(p) != PlaceKind::kForward) continue;
    const TransitionId src = producer(p);
    const bool shell = transition_kind(src) == TransitionKind::kShell;
    const std::int64_t tok = tokens(p);
    if (shell && tok != 1) {
      std::ostringstream os;
      os << "shell '" << transition_name(src) << "' has an outgoing forward place with " << tok
         << " tokens (must be 1)";
      throw std::invalid_argument(os.str());
    }
    // Relay stations and internal pipeline stages are initialized void.
    if (!shell && tok != 0) {
      std::ostringstream os;
      os << "void-initialized transition '" << transition_name(src)
         << "' has an outgoing forward place with " << tok << " tokens (must be 0)";
      throw std::invalid_argument(os.str());
    }
  }
  for (TransitionId t = 0; t < static_cast<TransitionId>(num_transitions()); ++t) {
    if (transition_kind(t) != TransitionKind::kRelayStation) continue;
    std::size_t in_fwd = 0;
    std::size_t out_fwd = 0;
    for (const PlaceId p : structure_.in_edges(t)) {
      if (place_kind(p) == PlaceKind::kForward) ++in_fwd;
    }
    for (const PlaceId p : structure_.out_edges(t)) {
      if (place_kind(p) == PlaceKind::kForward) ++out_fwd;
    }
    if (in_fwd != 1 || out_fwd != 1) {
      std::ostringstream os;
      os << "relay station '" << transition_name(t) << "' must have exactly one incoming and "
         << "one outgoing forward place (has " << in_fwd << " in, " << out_fwd << " out)";
      throw std::invalid_argument(os.str());
    }
  }

  // Every cycle must carry at least one token, otherwise the system
  // deadlocks. Equivalent: the zero-token subgraph is acyclic (one DFS).
  if (!graph::find_cycle(structure_, [&](graph::EdgeId p) { return tokens(p) == 0; }).empty()) {
    throw std::invalid_argument("marked graph has a token-free cycle (deadlock)");
  }
}

}  // namespace lid::mg
